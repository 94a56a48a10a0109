package caps

import (
	"context"
	"fmt"
	"math"
	"testing"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// The search benchmarks are plain `go test -bench` microbenchmarks (`make
// bench`): incremental against scratch evaluation, cold against warm start,
// with the per-search node and cost-evaluation counts reported beside the
// time, and threshold auto-tuning with its probe and search counts. They
// record nothing; the placement figures any claim rests on come
// from the `search-scale` workload of the repository's benchmark (bench/).

type benchCase struct {
	query string
	phys  *dataflow.PhysicalGraph
	c     *cluster.Cluster
	u     *costmodel.Usage
	alpha costmodel.Vector
}

func q3infCase(b *testing.B) benchCase {
	b.Helper()
	spec := nexmark.Q3Inf()
	c, err := cluster.Homogeneous(8, 4, 4.0, 200e6, 1.25e9)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := dataflow.PropagateRates(spec.Graph, spec.SourceRates)
	if err != nil {
		b.Fatal(err)
	}
	return benchCase{
		query: "q3inf", phys: phys, c: c, u: costmodel.FromRates(spec.Graph, rates),
		alpha: costmodel.Vector{CPU: 0.15, IO: 0.25, Net: 0.8},
	}
}

// q3infScaledCase doubles Q3Inf (32 tasks) on a 32-worker cluster: the
// fig7-style exhaustive search at a size where the per-node evaluation cost
// dominates, which is where the incremental evaluator's advantage over
// from-scratch recomputation shows in wall-clock, not just counters.
func q3infScaledCase(b *testing.B) benchCase {
	b.Helper()
	spec := nexmark.Q3Inf().Scaled(2)
	per := make(map[dataflow.OperatorID]int)
	for _, op := range spec.Graph.Operators() {
		per[op.ID] = op.Parallelism * 2
	}
	g, err := spec.Graph.Rescale(per)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cluster.Homogeneous(32, 4, 4.0, 200e6, 1.25e9)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := dataflow.PropagateRates(g, spec.SourceRates)
	if err != nil {
		b.Fatal(err)
	}
	return benchCase{
		query: "q3inf-x2", phys: phys, c: c, u: costmodel.FromRates(g, rates),
		alpha: costmodel.Vector{CPU: 0.15, IO: 0.25, Net: 0.8},
	}
}

// q2joinCase scales Q2-join to the given task count on a tasks==slots
// cluster, mirroring the Figure 10a growth series.
func q2joinCase(b testing.TB, tasks int) benchCase {
	b.Helper()
	base := nexmark.Q2Join()
	workers := tasks / 8
	if workers < 2 {
		workers = 2
	}
	slots := (tasks + workers - 1) / workers
	c, err := cluster.Homogeneous(workers, slots, 4.0*float64(slots)/4, 200e6*float64(slots)/4, 1.25e9)
	if err != nil {
		b.Fatal(err)
	}
	// Scale parallelism proportionally (rounding drift absorbed by the
	// largest operator) and source rates by the same factor, like the
	// Figure 10a experiment does — an even split would put the thresholds
	// out of reach.
	factor := float64(tasks) / float64(base.Graph.TotalTasks())
	spec := base.Scaled(factor)
	ops := spec.Graph.Operators()
	per := make(map[dataflow.OperatorID]int, len(ops))
	assigned := 0
	largest := ops[0]
	for _, op := range ops {
		p := int(math.Round(float64(op.Parallelism) * factor))
		if p < 1 {
			p = 1
		}
		per[op.ID] = p
		assigned += p
		if op.Parallelism > largest.Parallelism {
			largest = op
		}
	}
	per[largest.ID] += tasks - assigned
	g, err := spec.Graph.Rescale(per)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		b.Fatal(err)
	}
	rates, err := dataflow.PropagateRates(g, spec.SourceRates)
	if err != nil {
		b.Fatal(err)
	}
	return benchCase{
		query: fmt.Sprintf("q2join-%d", tasks), phys: phys, c: c, u: costmodel.FromRates(g, rates),
		alpha: costmodel.Vector{CPU: 0.15, IO: 0.25, Net: 0.8},
	}
}

func runSearchBench(b *testing.B, bc benchCase, opts Options) {
	b.Helper()
	opts.Alpha = bc.alpha
	opts.Reorder = true
	var last *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search(context.Background(), bc.phys, bc.c, bc.u, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("benchmark search infeasible")
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.Nodes), "nodes/op")
	b.ReportMetric(float64(last.Stats.CostEvals), "evals/op")
}

// warmPlanFor runs one untimed cold search to obtain the seed plan for the
// warm variants (the controller's steady-state situation: the previous
// tick's plan is still feasible).
func warmPlanFor(b *testing.B, bc benchCase, mode Mode) *dataflow.Plan {
	b.Helper()
	res, err := Search(context.Background(), bc.phys, bc.c, bc.u, Options{
		Alpha: bc.alpha, Mode: mode, Reorder: true,
	})
	if err != nil || !res.Feasible {
		b.Fatalf("warm seed search failed: %v", err)
	}
	return res.Plan
}

func BenchmarkSearch(b *testing.B) {
	b.Run("q3inf/exhaustive/scratch", func(b *testing.B) {
		bc := q3infCase(b)
		runSearchBench(b, bc, Options{Mode: Exhaustive, ScratchEval: true})
	})
	b.Run("q3inf/exhaustive/no-memo", func(b *testing.B) {
		bc := q3infCase(b)
		runSearchBench(b, bc, Options{Mode: Exhaustive, DisableMemo: true})
	})
	b.Run("q3inf/exhaustive/incremental", func(b *testing.B) {
		bc := q3infCase(b)
		runSearchBench(b, bc, Options{Mode: Exhaustive})
	})
	b.Run("q3inf-x2/exhaustive/scratch", func(b *testing.B) {
		bc := q3infScaledCase(b)
		runSearchBench(b, bc, Options{Mode: Exhaustive, ScratchEval: true})
	})
	b.Run("q3inf-x2/exhaustive/incremental", func(b *testing.B) {
		bc := q3infScaledCase(b)
		runSearchBench(b, bc, Options{Mode: Exhaustive})
	})
	b.Run("q3inf/first-feasible/cold", func(b *testing.B) {
		bc := q3infCase(b)
		runSearchBench(b, bc, Options{Mode: FirstFeasible})
	})
	b.Run("q3inf/first-feasible/warm", func(b *testing.B) {
		bc := q3infCase(b)
		warm := warmPlanFor(b, bc, FirstFeasible)
		runSearchBench(b, bc, Options{Mode: FirstFeasible, Warm: warm})
	})
	for _, tasks := range []int{32, 64} {
		tasks := tasks
		name := fmt.Sprintf("q2join-%d", tasks)
		b.Run(name+"/first-feasible/cold", func(b *testing.B) {
			bc := q2joinCase(b, tasks)
			runSearchBench(b, bc, Options{Mode: FirstFeasible})
		})
		b.Run(name+"/first-feasible/warm", func(b *testing.B) {
			bc := q2joinCase(b, tasks)
			warm := warmPlanFor(b, bc, FirstFeasible)
			runSearchBench(b, bc, Options{Mode: FirstFeasible, Warm: warm})
		})
		b.Run(name+"/first-feasible/scratch", func(b *testing.B) {
			bc := q2joinCase(b, tasks)
			runSearchBench(b, bc, Options{Mode: FirstFeasible, ScratchEval: true})
		})
	}
}

// BenchmarkAutoTune is the decision every placement without a given α pays
// first: the search-scale shape of the repository's benchmark (Q2-join, 256
// tasks, 32 × 8 slots), where most schedule steps repeat the previous
// probe's tree and are stepped past (searches/op against probes/op).
func BenchmarkAutoTune(b *testing.B) {
	b.Run("q2join-256", func(b *testing.B) {
		bc := q2joinCase(b, 256)
		var last *AutoTuneResult
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := AutoTune(context.Background(), bc.phys, bc.c, bc.u, DefaultAutoTuneOptions())
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.StopTimer()
		b.ReportMetric(float64(last.Searches), "searches/op")
		b.ReportMetric(float64(last.Probes), "probes/op")
	})
}
