package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/telemetry"
)

// SearchPerf measures the incremental cost evaluator and warm start against
// their ablations. For each query/mode it runs the same search with the
// evaluator variants (scratch recomputation, incremental without memo,
// incremental with memo) and — in first-feasible mode — cold versus seeded
// with the previous plan, reporting effort counters and wall-clock. Each
// search runs serially and then at the default Parallelism (GOMAXPROCS
// goroutines); the two must report identical counters, and the par column is
// the parallel wall time.
//
// This is the `go test -bench BenchmarkSearch ./internal/caps` battery in
// experiment form: the benchmark reports per-variant times, this prints the
// comparison as a table and also exercises the telemetry export path the
// controller uses in production.
func SearchPerf(ctx context.Context) (*Report, error) {
	r := &Report{
		ID:     "SEARCHPERF",
		Title:  "CAPS search effort: scratch vs incremental evaluation, cold vs warm start",
		Header: []string{"query", "tasks", "workers", "mode", "variant", "time(ms)", "par(ms)", "nodes", "cost_evals", "memo_prunes", "budget_prunes", "layer_prunes", "plans"},
	}
	hub := telemetry.New()

	type searchCase struct {
		query string
		phys  *dataflow.PhysicalGraph
		c     *cluster.Cluster
		u     *costmodel.Usage
	}
	alpha := costmodel.Vector{CPU: 0.15, IO: 0.25, Net: 0.8}

	q3 := nexmark.Q3Inf()
	q3c, err := cluster.Homogeneous(8, 4, 4.0, 200e6, 1.25e9)
	if err != nil {
		return nil, err
	}
	q3phys, err := dataflow.Expand(q3.Graph)
	if err != nil {
		return nil, err
	}
	q3u, err := controller.UsageOf(q3.Graph, q3.SourceRates)
	if err != nil {
		return nil, err
	}
	cases := []searchCase{{"q3inf", q3phys, q3c, q3u}}

	// Doubled Q3Inf on a 32-worker cluster: the exhaustive search where the
	// per-node evaluation cost dominates and the incremental evaluator's
	// advantage shows in wall-clock, not just counters.
	x2 := nexmark.Q3Inf().Scaled(2)
	x2per := make(map[dataflow.OperatorID]int)
	for _, op := range x2.Graph.Operators() {
		x2per[op.ID] = op.Parallelism * 2
	}
	x2g, err := x2.Graph.Rescale(x2per)
	if err != nil {
		return nil, err
	}
	x2c, err := cluster.Homogeneous(32, 4, 4.0, 200e6, 1.25e9)
	if err != nil {
		return nil, err
	}
	x2phys, err := dataflow.Expand(x2g)
	if err != nil {
		return nil, err
	}
	x2u, err := controller.UsageOf(x2g, x2.SourceRates)
	if err != nil {
		return nil, err
	}
	cases = append(cases, searchCase{"q3inf-x2", x2phys, x2c, x2u})

	base := nexmark.Q2Join()
	for _, tasks := range []int{32, 64} {
		workers := tasks / 8
		slots := (tasks + workers - 1) / workers
		c, err := cluster.Homogeneous(workers, slots, 4.0*float64(slots)/4, 200e6*float64(slots)/4, 1.25e9)
		if err != nil {
			return nil, err
		}
		spec, err := scaleQuery(base, tasks)
		if err != nil {
			return nil, err
		}
		phys, err := dataflow.Expand(spec.Graph)
		if err != nil {
			return nil, err
		}
		u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
		if err != nil {
			return nil, err
		}
		cases = append(cases, searchCase{fmt.Sprintf("q2join-%d", tasks), phys, c, u})
	}

	run := func(sc searchCase, mode caps.Mode, variant string, opts caps.Options) (*caps.Result, error) {
		opts.Alpha = alpha
		opts.Mode = mode
		opts.Reorder = true
		opts.Timeout = 30 * time.Second
		opts.Telemetry = hub
		var ms [2]float64
		var res [2]*caps.Result
		for i, par := range []int{1, 0} {
			opts.Parallelism = par
			start := time.Now() //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
			var err error
			if res[i], err = caps.Search(ctx, sc.phys, sc.c, sc.u, opts); err != nil {
				return nil, err
			}
			ms[i] = float64(time.Since(start).Microseconds()) / 1000 //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
		}
		st, pst := res[0].Stats, res[1].Stats
		st.Elapsed, pst.Elapsed = 0, 0
		if st != pst {
			return nil, fmt.Errorf("searchperf: %s %s: parallel search counters %+v differ from serial %+v", sc.query, variant, pst, st)
		}
		modeName := "exhaustive"
		if mode == caps.FirstFeasible {
			modeName = "first-feasible"
		}
		r.AddRow(sc.query, sc.phys.NumTasks(), sc.c.NumWorkers(), modeName, variant, ms[0], ms[1],
			st.Nodes, st.CostEvals, st.MemoPrunes, st.BudgetPrunes, st.LayerPrunes, st.Plans)
		return res[0], nil
	}

	var evalRatio, warmRatio float64
	for _, sc := range cases {
		// Evaluator ablation on the exhaustive search — the Q3Inf instances
		// only; the scaled q2join instances are first-feasible territory (the
		// paper runs them online, and exhaustively enumerating 64 tasks with
		// 8-way operators is hours).
		if sc.query == "q3inf" || sc.query == "q3inf-x2" {
			scratch, err := run(sc, caps.Exhaustive, "scratch", caps.Options{ScratchEval: true})
			if err != nil {
				return nil, err
			}
			if _, err := run(sc, caps.Exhaustive, "no-memo", caps.Options{DisableMemo: true}); err != nil {
				return nil, err
			}
			incr, err := run(sc, caps.Exhaustive, "incremental", caps.Options{})
			if err != nil {
				return nil, err
			}
			if sc.query == "q3inf-x2" && incr.Stats.CostEvals > 0 {
				evalRatio = float64(scratch.Stats.CostEvals) / float64(incr.Stats.CostEvals)
			}
		}
		// Warm start on the online (first-feasible) decision: seed with the
		// plan a cold search just produced, the controller's steady state.
		cold, err := run(sc, caps.FirstFeasible, "cold", caps.Options{})
		if err != nil {
			return nil, err
		}
		warm, err := run(sc, caps.FirstFeasible, "warm", caps.Options{Warm: cold.Plan})
		if err != nil {
			return nil, err
		}
		if sc.query == "q3inf" && warm.Stats.Nodes > 0 {
			warmRatio = float64(cold.Stats.Nodes) / float64(warm.Stats.Nodes)
		}
	}

	snap := hub.Registry().Snapshot()
	r.Notes = append(r.Notes,
		fmt.Sprintf("scratch/incremental cost evaluations on q3inf-x2 exhaustive: %.2fx (>=2x expected)", evalRatio),
		fmt.Sprintf("cold/warm nodes on q3inf first-feasible: %.2fx (>1x expected: warm replays the still-feasible previous plan)", warmRatio),
		fmt.Sprintf("telemetry totals across all runs: runs=%.0f nodes=%.0f cost_evals=%.0f memo_prunes=%.0f budget_prunes=%.0f layer_prunes=%.0f warm_runs=%.0f",
			snap["caps.search.runs"], snap["caps.search.nodes"], snap["caps.search.cost_evals"],
			snap["caps.search.memo_prunes"], snap["caps.search.budget_prunes"], snap["caps.search.layer_prunes"], snap["caps.search.warm_runs"]),
		fmt.Sprintf("parallel helpers (GOMAXPROCS=%d): subtrees adopted=%.0f redone=%.0f wasted_nodes=%.0f",
			runtime.GOMAXPROCS(0), snap["caps.search.helper_adopted"], snap["caps.search.helper_redone"], snap["caps.search.helper_wasted_nodes"]),
	)
	return r, nil
}
