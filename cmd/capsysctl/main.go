// Command capsysctl computes a task placement plan for a streaming query on
// a worker cluster, using any of the implemented strategies (CAPS, Flink
// default, Flink evenly, random, greedy).
//
// Queries come either from the built-in Nexmark benchmark suite (-query) or
// from a JSON file (-query-file); clusters from flags or a JSON file. The
// plan is printed as JSON together with its cost vector and the simulated
// steady-state performance.
//
// Examples:
//
//	capsysctl -query Q1-sliding -strategy caps
//	capsysctl -query Q3-inf -strategy default -seed 3 -workers 8 -slots 4
//	capsysctl -query-file myquery.json -cluster-file mycluster.json
//
// caplive runs a plan on the live engine, with checkpoints, a worker kill or
// a live rescale; `capbench -exp recovery` and `capbench -exp rescale` are
// the recovery and rescale studies.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/specio"
)

type output struct {
	Query     string             `json:"query"`
	Strategy  string             `json:"strategy"`
	Plan      specio.PlanJSON    `json:"plan"`
	Cost      map[string]float64 `json:"cost"`
	Decision  string             `json:"decision_time"`
	Simulated struct {
		Throughput   float64 `json:"throughput_rec_s"`
		Target       float64 `json:"target_rec_s"`
		Backpressure float64 `json:"backpressure"`
		LatencyMS    float64 `json:"latency_ms"`
	} `json:"simulated"`
}

// ctlFlags are the flags only capsysctl has; the shared ones are in
// cliflags.Common.
type ctlFlags struct {
	queryFile   string
	clusterFile string
	noSim       bool
	chain       bool
	list        bool
}

// registerFlags declares every capsysctl flag on fs.
func registerFlags(fs *flag.FlagSet) (*cliflags.Common, *ctlFlags) {
	f := &cliflags.Common{
		Strategy: "caps",
		Workers:  4, Slots: 4, Cores: 4, IOBps: 200e6, NetBps: 1.25e9,
	}
	f.Register(fs, map[string]string{
		"query":   "built-in query name (Q1-sliding .. Q6-session)",
		"workers": "number of workers (ignored with -cluster-file)",
	})
	o := &ctlFlags{}
	fs.StringVar(&o.queryFile, "query-file", "", "JSON query spec file ('-' = stdin)")
	fs.StringVar(&o.clusterFile, "cluster-file", "", "JSON cluster spec file")
	fs.BoolVar(&o.list, "list", false, "list built-in queries and exit")
	fs.BoolVar(&o.noSim, "no-sim", false, "skip the simulated evaluation")
	fs.BoolVar(&o.chain, "chain", false, "apply operator chaining before placement; the plan is expanded back to the original graph")
	return f, o
}

func main() {
	f, o := registerFlags(flag.CommandLine)
	flag.Parse()
	if o.list {
		for _, q := range nexmark.AllQueries() {
			fmt.Printf("%-14s %2d tasks  target %8.0f rec/s\n", q.Name, q.Graph.TotalTasks(), q.TotalRate())
		}
		return
	}
	if err := run(f, o); err != nil {
		fmt.Fprintln(os.Stderr, "capsysctl:", err)
		os.Exit(1)
	}
}

func run(f *cliflags.Common, o *ctlFlags) error {
	var spec nexmark.QuerySpec
	var err error
	switch {
	case o.queryFile != "":
		spec, err = specio.LoadQuery(o.queryFile)
	case f.Query != "":
		spec, err = nexmark.ByName(f.Query)
	default:
		return fmt.Errorf("one of -query or -query-file is required (see -list)")
	}
	if err != nil {
		return err
	}

	var c *cluster.Cluster
	if o.clusterFile != "" {
		c, err = specio.LoadCluster(o.clusterFile)
	} else {
		c, err = f.Cluster()
	}
	if err != nil {
		return err
	}

	strat, err := placement.ByName(f.Strategy)
	if err != nil {
		return err
	}

	// With -chain, placement runs on the chained graph (fewer layers) and
	// the resulting plan is expanded back onto the original operators.
	placementSpec := spec
	var chained *dataflow.ChainResult
	if o.chain {
		chained, err = dataflow.Chain(spec.Graph)
		if err != nil {
			return err
		}
		rates := make(map[dataflow.OperatorID]float64, len(spec.SourceRates))
		for _, src := range chained.Graph.Sources() {
			for _, member := range chained.Members[src.ID] {
				if r, ok := spec.SourceRates[member]; ok {
					rates[src.ID] = r
				}
			}
		}
		placementSpec = nexmark.QuerySpec{Name: spec.Name, Graph: chained.Graph, SourceRates: rates}
	}

	placePhys, err := dataflow.Expand(placementSpec.Graph)
	if err != nil {
		return err
	}
	placeUsage, err := controller.UsageOf(placementSpec.Graph, placementSpec.SourceRates)
	if err != nil {
		return err
	}

	start := time.Now()
	plan, err := strat.Place(context.Background(), placePhys, c, placeUsage, f.Seed)
	if err != nil {
		return err
	}
	decision := time.Since(start)
	if chained != nil {
		plan, err = dataflow.ExpandChainedPlan(chained, plan)
		if err != nil {
			return err
		}
	}

	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return err
	}

	slotsPerWorker, err := c.SlotsPerWorker()
	if err != nil {
		return err
	}
	bounds := costmodel.ComputeBounds(phys, u, c.NumWorkers(), slotsPerWorker)
	cost := costmodel.PlanCost(phys, plan, u, bounds, c.NumWorkers())

	var out output
	out.Query = spec.Name
	out.Strategy = strat.Name()
	out.Plan = specio.RenderPlan(plan, phys, c.NumWorkers())
	out.Cost = map[string]float64{"cpu": cost.CPU, "io": cost.IO, "net": cost.Net}
	out.Decision = decision.String()

	if !o.noSim {
		res, err := simulator.Evaluate([]simulator.QueryDeployment{{
			Name: spec.Name, Phys: phys, Plan: plan, SourceRates: spec.SourceRates,
		}}, c, simulator.DefaultConfig())
		if err != nil {
			return err
		}
		qm := res.Queries[spec.Name]
		out.Simulated.Throughput = qm.Throughput
		out.Simulated.Target = qm.Target
		out.Simulated.Backpressure = qm.Backpressure
		out.Simulated.LatencyMS = qm.LatencySec * 1000
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
