package experiments

import (
	"fmt"
	"math"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/simulator"
	"capsys/internal/telemetry"
)

// mergedLatencyQuantile merges every per-operator latency histogram on the
// hub (they share one bucket layout) and returns the p-quantile in seconds,
// or 0 when the hub recorded no samples.
func mergedLatencyQuantile(tel *telemetry.Telemetry, p float64) float64 {
	var merged telemetry.HistogramSnapshot
	first := true
	for _, name := range tel.HistogramNames() {
		snap := tel.Histogram(name).Snapshot() //capslint:allow metricnames iterates names already registered on the hub
		if first {
			merged = snap
			first = false
			continue
		}
		if err := merged.Merge(snap); err != nil {
			return 0
		}
	}
	if first || merged.Count == 0 {
		return 0
	}
	return merged.Quantile(p)
}

// evalPlan runs one (query, plan) pair through the simulator and returns its
// query metrics.
func evalPlan(spec nexmark.QuerySpec, phys *dataflow.PhysicalGraph, plan *dataflow.Plan, c *cluster.Cluster, cfg simulator.Config) (simulator.QueryMetrics, error) {
	res, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: spec.Name, Phys: phys, Plan: plan, SourceRates: spec.SourceRates,
	}}, c, cfg)
	if err != nil {
		return simulator.QueryMetrics{}, err
	}
	return res.Queries[spec.Name], nil
}

// summarize computes min/mean/max of a sample.
func summarize(xs []float64) (min, mean, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, sum / float64(len(xs)), max
}

// scaleQuery returns a copy of spec whose operator parallelisms are scaled
// so the total task count equals totalTasks, with source rates scaled
// proportionally (keeping per-task load roughly constant). Rounding residue
// is absorbed by the largest operator.
func scaleQuery(spec nexmark.QuerySpec, totalTasks int) (nexmark.QuerySpec, error) {
	base := spec.Graph.TotalTasks()
	if totalTasks < spec.Graph.NumOperators() {
		return nexmark.QuerySpec{}, fmt.Errorf("experiments: %d tasks below one per operator", totalTasks)
	}
	factor := float64(totalTasks) / float64(base)
	out := spec.Scaled(factor)
	out.Name = spec.Name

	ops := out.Graph.Operators()
	newPar := make(map[dataflow.OperatorID]int, len(ops))
	assigned := 0
	largest := ops[0]
	for _, op := range ops {
		p := int(math.Round(float64(op.Parallelism) * factor))
		if p < 1 {
			p = 1
		}
		newPar[op.ID] = p
		assigned += p
		if op.Parallelism > largest.Parallelism {
			largest = op
		}
	}
	// Absorb rounding drift in the largest operator.
	newPar[largest.ID] += totalTasks - assigned
	if newPar[largest.ID] < 1 {
		return nexmark.QuerySpec{}, fmt.Errorf("experiments: cannot scale %s to %d tasks", spec.Name, totalTasks)
	}
	g, err := out.Graph.Rescale(newPar)
	if err != nil {
		return nexmark.QuerySpec{}, err
	}
	out.Graph = g
	return out, nil
}

// heaviestOperator returns the non-source operator with the largest
// parallelism, the usual contention subject (window/join/inference).
func heaviestOperator(g *dataflow.LogicalGraph) dataflow.OperatorID {
	var best *dataflow.Operator
	for _, op := range g.Operators() {
		if len(g.Upstream(op.ID)) == 0 {
			continue
		}
		if best == nil || op.Parallelism > best.Parallelism {
			best = op
		}
	}
	if best == nil {
		return g.Operators()[0].ID
	}
	return best.ID
}
