package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// ExtSkew reproduces the technical report's skew study (paper §5.2): with a
// skewed key distribution, some tasks of an operator are "hot". CAPS with
// placement groups (SplitForSkew) treats the hot tasks as a separate layer
// with their true per-task load; skew-unaware CAPS assumes uniform tasks,
// so whether the hot tasks land together is luck. The experiment reports
// the skew-aware plan against the unaware plan's best and worst hot-task
// outcomes.
func ExtSkew(ctx context.Context) (*Report, error) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	cfg := simulator.DefaultConfig()

	// 2 hot window tasks receive 30% of the stream (1.2x a fair share
	// each, within a single thread's capacity); 6 cold tasks share the
	// rest.
	sr, err := dataflow.SplitForSkew(spec.Graph, "slide-win", []dataflow.SkewGroup{
		{Tasks: 2, RateShare: 0.3},
		{Tasks: 6, RateShare: 0.7},
	})
	if err != nil {
		return nil, err
	}
	splitSpec := nexmark.QuerySpec{Name: spec.Name, Graph: sr.Graph, SourceRates: spec.SourceRates}
	splitPhys, err := dataflow.Expand(sr.Graph)
	if err != nil {
		return nil, err
	}
	splitUsage, err := controller.UsageOf(splitSpec.Graph, splitSpec.SourceRates)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "EXT-SKEW",
		Title:  "Skew-aware placement groups vs uniform assumption (Q1-sliding, 2 hot window tasks)",
		Header: []string{"plan", "throughput(rec/s)", "backpressure(%)"},
	}

	// Skew-aware: CAPS over the split graph (each group its own layer).
	awarePlan, err := (placement.CAPS{}).Place(ctx, splitPhys, c, splitUsage, 0)
	if err != nil {
		return nil, err
	}
	aware, err := evalPlan(splitSpec, splitPhys, awarePlan, c, cfg)
	if err != nil {
		return nil, err
	}
	r.AddRow("caps skew-aware", aware.Throughput, aware.Backpressure*100)

	// Skew-unaware: CAPS on the uniform graph; then the two hot tasks land
	// on workers by luck. Evaluate the best and worst luck by choosing
	// which window tasks are hot.
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return nil, err
	}
	unawarePlan, err := (placement.CAPS{}).Place(ctx, phys, c, u, 0)
	if err != nil {
		return nil, err
	}
	winTasks := phys.TasksOf("slide-win")
	evalMapping := func(hotA, hotB int) (simulator.QueryMetrics, error) {
		split := dataflow.NewPlan()
		// Non-window tasks keep their worker.
		for _, t := range phys.Tasks() {
			if t.Op != "slide-win" {
				split.Assign(t, unawarePlan.MustWorker(t))
			}
		}
		hotIdx := 0
		coldIdx := 0
		for i, t := range winTasks {
			w := unawarePlan.MustWorker(t)
			if i == hotA || i == hotB {
				split.Assign(dataflow.TaskID{Op: sr.Groups[0], Index: hotIdx}, w)
				hotIdx++
			} else {
				split.Assign(dataflow.TaskID{Op: sr.Groups[1], Index: coldIdx}, w)
				coldIdx++
			}
		}
		return evalPlan(splitSpec, splitPhys, split, c, cfg)
	}
	// Best luck: hot tasks on distinct workers; worst: hot pair
	// co-located (if the plan co-locates any window pair).
	bestA, bestB, worstA, worstB := -1, -1, -1, -1
	for i := range winTasks {
		for j := i + 1; j < len(winTasks); j++ {
			wi := unawarePlan.MustWorker(winTasks[i])
			wj := unawarePlan.MustWorker(winTasks[j])
			if wi != wj && bestA == -1 {
				bestA, bestB = i, j
			}
			if wi == wj && worstA == -1 {
				worstA, worstB = i, j
			}
		}
	}
	if bestA >= 0 {
		qm, err := evalMapping(bestA, bestB)
		if err != nil {
			return nil, err
		}
		r.AddRow("caps unaware (hot tasks apart)", qm.Throughput, qm.Backpressure*100)
	}
	if worstA >= 0 {
		qm, err := evalMapping(worstA, worstB)
		if err != nil {
			return nil, err
		}
		r.AddRow("caps unaware (hot tasks together)", qm.Throughput, qm.Backpressure*100)
	}
	r.Notes = append(r.Notes,
		"expected shape: skew-aware groups meet or beat the unaware plan's best luck and clearly beat its worst luck")
	return r, nil
}

// ExtChain demonstrates that CAPS works as-is with operator chaining
// (paper §6.1): a chainable pipeline is collapsed with dataflow.Chain, the
// chained graph has fewer layers and a smaller search space, and the
// chained plan expands back to a valid placement of the original graph.
func ExtChain(ctx context.Context) (*Report, error) {
	// A chainable variant of Q1-sliding: source and timestamp-extractor
	// are 1:1 forward-connected, as in the paper's chaining setting.
	g := dataflow.NewLogicalGraph()
	ops := []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 4, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 2e-5, Net: 120}},
		{ID: "ts", Kind: dataflow.KindMap, Parallelism: 4, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 2e-5, Net: 120}},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 8, Selectivity: 0.25,
			Cost: dataflow.UnitCost{CPU: 4.5e-4, IO: 50000, Net: 40}},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 2, Selectivity: 0,
			Cost: dataflow.UnitCost{CPU: 5e-6}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			return nil, err
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "src", To: "ts", Mode: dataflow.Forward},
		{From: "ts", To: "win"},
		{From: "win", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			return nil, err
		}
	}
	rates := map[dataflow.OperatorID]float64{"src": 14000}
	// The unchained graph has 18 tasks; use a 20-slot cluster so both
	// variants fit and only the search space differs.
	big, err := clusterFor(5, 4)
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:     "EXT-CHAIN",
		Title:  "Operator chaining: search effort and plan equivalence",
		Header: []string{"variant", "operators", "tasks", "plans", "nodes", "feasible"},
	}
	search := func(name string, graph *dataflow.LogicalGraph) (*caps.Result, error) {
		phys, err := dataflow.Expand(graph)
		if err != nil {
			return nil, err
		}
		u, err := controller.UsageOf(graph, sourceRatesFor(graph, rates))
		if err != nil {
			return nil, err
		}
		res, err := caps.Search(ctx, phys, big, u, caps.Options{Alpha: caps.Unbounded, Mode: caps.Exhaustive})
		if err != nil {
			return nil, err
		}
		r.AddRow(name, graph.NumOperators(), graph.TotalTasks(), res.Stats.Plans, res.Stats.Nodes, res.Feasible)
		return res, nil
	}
	if _, err := search("unchained", g); err != nil {
		return nil, err
	}
	cr, err := dataflow.Chain(g)
	if err != nil {
		return nil, err
	}
	chainedRes, err := search("chained", cr.Graph)
	if err != nil {
		return nil, err
	}
	// The chained plan expands back onto the original graph: every
	// original task is assigned and chain members are co-located (they
	// share a slot pipeline, so per-worker slot usage is counted in
	// chained tasks, not original tasks).
	expanded, err := dataflow.ExpandChainedPlan(cr, chainedRes.Plan)
	if err != nil {
		return nil, err
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, err
	}
	if expanded.Len() != phys.NumTasks() {
		return nil, fmt.Errorf("expanded plan covers %d of %d tasks", expanded.Len(), phys.NumTasks())
	}
	for idx := 0; idx < g.Operator("src").Parallelism; idx++ {
		a := expanded.MustWorker(dataflow.TaskID{Op: "src", Index: idx})
		b := expanded.MustWorker(dataflow.TaskID{Op: "ts", Index: idx})
		if a != b {
			return nil, fmt.Errorf("chain members src[%d]/ts[%d] split across workers %d/%d", idx, idx, a, b)
		}
	}
	r.Notes = append(r.Notes,
		"expected shape: chaining shrinks operators/tasks and the search space; the chained plan expands to a valid original placement")
	return r, nil
}

// clusterFor builds a reference-style cluster with the given shape.
func clusterFor(workers, slots int) (*cluster.Cluster, error) {
	return cluster.Homogeneous(workers, slots, 4.0, 200e6, 1.25e9)
}

// sourceRatesFor maps the base rates onto the (possibly chained) graph's
// source operator IDs by prefix match. Base IDs are scanned in sorted order:
// when several match the same chained source, the winner must not depend on
// map iteration order.
func sourceRatesFor(g *dataflow.LogicalGraph, base map[dataflow.OperatorID]float64) map[dataflow.OperatorID]float64 {
	ids := make([]dataflow.OperatorID, 0, len(base))
	for id := range base {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make(map[dataflow.OperatorID]float64)
	for _, src := range g.Sources() {
		for _, id := range ids {
			if src.ID == id || hasPrefix(string(src.ID), string(id)+"+") {
				out[src.ID] = base[id]
			}
		}
	}
	return out
}

func hasPrefix(s, p string) bool { return strings.HasPrefix(s, p) }
