// Package specio serializes query specifications and cluster descriptions
// to/from JSON, and renders plans to it: the interchange format of capsysctl,
// the placement CLI. A user can describe their own dataflow (operators,
// edges, profiled unit costs, target rates) and cluster in a file, feed them
// to capsysctl -query-file and -cluster-file, and get the plan back as JSON.
package specio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// OperatorSpec is the JSON form of one logical operator.
type OperatorSpec struct {
	ID          string  `json:"id"`
	Kind        string  `json:"kind,omitempty"`
	Parallelism int     `json:"parallelism"`
	Selectivity float64 `json:"selectivity"`
	// CPU is CPU-seconds per record, IO state bytes per record, Net output
	// bytes per record.
	CPU float64 `json:"cpu_per_record,omitempty"`
	IO  float64 `json:"io_bytes_per_record,omitempty"`
	Net float64 `json:"net_bytes_per_record,omitempty"`
}

// EdgeSpec is the JSON form of one logical edge.
type EdgeSpec struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Mode is "all-to-all" (default) or "forward".
	Mode string `json:"mode,omitempty"`
}

// QueryFile is the JSON form of a full query specification.
type QueryFile struct {
	Name      string         `json:"name"`
	Operators []OperatorSpec `json:"operators"`
	Edges     []EdgeSpec     `json:"edges"`
	// SourceRates maps source operator IDs to target records/second.
	SourceRates map[string]float64 `json:"source_rates"`
}

// ClusterFile is the JSON form of a worker cluster.
type ClusterFile struct {
	Workers int     `json:"workers"`
	Slots   int     `json:"slots"`
	Cores   float64 `json:"cores"`
	IOBps   float64 `json:"io_bytes_per_sec"`
	NetBps  float64 `json:"net_bytes_per_sec"`
}

var kindNames = map[string]dataflow.OperatorKind{
	"":          dataflow.KindMap,
	"source":    dataflow.KindSource,
	"sink":      dataflow.KindSink,
	"map":       dataflow.KindMap,
	"filter":    dataflow.KindFilter,
	"flatmap":   dataflow.KindFlatMap,
	"window":    dataflow.KindWindow,
	"join":      dataflow.KindJoin,
	"process":   dataflow.KindProcess,
	"inference": dataflow.KindInference,
}

// ToQuerySpec converts the JSON form into a validated QuerySpec.
func (qf *QueryFile) ToQuerySpec() (nexmark.QuerySpec, error) {
	if qf.Name == "" {
		return nexmark.QuerySpec{}, fmt.Errorf("specio: query has no name")
	}
	g := dataflow.NewLogicalGraph()
	for _, os := range qf.Operators {
		kind, ok := kindNames[os.Kind]
		if !ok {
			return nexmark.QuerySpec{}, fmt.Errorf("specio: operator %q has unknown kind %q", os.ID, os.Kind)
		}
		if err := g.AddOperator(dataflow.Operator{
			ID:          dataflow.OperatorID(os.ID),
			Kind:        kind,
			Parallelism: os.Parallelism,
			Selectivity: os.Selectivity,
			Cost:        dataflow.UnitCost{CPU: os.CPU, IO: os.IO, Net: os.Net},
		}); err != nil {
			return nexmark.QuerySpec{}, fmt.Errorf("specio: %w", err)
		}
	}
	for _, es := range qf.Edges {
		mode := dataflow.AllToAll
		switch es.Mode {
		case "", "all-to-all":
		case "forward":
			mode = dataflow.Forward
		default:
			return nexmark.QuerySpec{}, fmt.Errorf("specio: unknown edge mode %q", es.Mode)
		}
		if err := g.AddEdge(dataflow.Edge{
			From: dataflow.OperatorID(es.From),
			To:   dataflow.OperatorID(es.To),
			Mode: mode,
		}); err != nil {
			return nexmark.QuerySpec{}, fmt.Errorf("specio: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nexmark.QuerySpec{}, fmt.Errorf("specio: %w", err)
	}
	rates := make(map[dataflow.OperatorID]float64, len(qf.SourceRates))
	for k, v := range qf.SourceRates {
		rates[dataflow.OperatorID(k)] = v
	}
	spec := nexmark.QuerySpec{Name: qf.Name, Graph: g, SourceRates: rates}
	if _, err := dataflow.PropagateRates(g, rates); err != nil {
		return nexmark.QuerySpec{}, fmt.Errorf("specio: %w", err)
	}
	return spec, nil
}

// FromQuerySpec converts a QuerySpec into its JSON form.
func FromQuerySpec(spec nexmark.QuerySpec) *QueryFile {
	qf := &QueryFile{Name: spec.Name, SourceRates: make(map[string]float64)}
	for _, op := range spec.Graph.Operators() {
		qf.Operators = append(qf.Operators, OperatorSpec{
			ID:          string(op.ID),
			Kind:        op.Kind.String(),
			Parallelism: op.Parallelism,
			Selectivity: op.Selectivity,
			CPU:         op.Cost.CPU,
			IO:          op.Cost.IO,
			Net:         op.Cost.Net,
		})
	}
	for _, e := range spec.Graph.Edges() {
		qf.Edges = append(qf.Edges, EdgeSpec{From: string(e.From), To: string(e.To), Mode: e.Mode.String()})
	}
	for k, v := range spec.SourceRates {
		qf.SourceRates[string(k)] = v
	}
	return qf
}

// ToCluster converts the JSON form into a cluster.
func (cf *ClusterFile) ToCluster() (*cluster.Cluster, error) {
	return cluster.Homogeneous(cf.Workers, cf.Slots, cf.Cores, cf.IOBps, cf.NetBps)
}

// LoadQuery reads a QueryFile from path ("-" = stdin) and converts it.
func LoadQuery(path string) (nexmark.QuerySpec, error) {
	data, err := readFile(path)
	if err != nil {
		return nexmark.QuerySpec{}, err
	}
	var qf QueryFile
	if err := json.Unmarshal(data, &qf); err != nil {
		return nexmark.QuerySpec{}, fmt.Errorf("specio: parsing %s: %w", path, err)
	}
	return qf.ToQuerySpec()
}

// LoadCluster reads a ClusterFile from path ("-" = stdin) and converts it.
func LoadCluster(path string) (*cluster.Cluster, error) {
	data, err := readFile(path)
	if err != nil {
		return nil, err
	}
	var cf ClusterFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("specio: parsing %s: %w", path, err)
	}
	return cf.ToCluster()
}

func readFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// PlanJSON is the JSON rendering of a placement plan: worker index ->
// task names.
type PlanJSON map[string][]string

// RenderPlan converts a plan for the given graph into its JSON form.
func RenderPlan(plan *dataflow.Plan, phys *dataflow.PhysicalGraph, numWorkers int) PlanJSON {
	out := make(PlanJSON)
	for w := 0; w < numWorkers; w++ {
		tasks := plan.TasksOn(w)
		if len(tasks) == 0 {
			continue
		}
		names := make([]string, len(tasks))
		for i, t := range tasks {
			names[i] = t.String()
		}
		out[fmt.Sprintf("worker-%d", w)] = names
	}
	return out
}
