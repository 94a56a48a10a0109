package nexmark

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/simulator"
)

// bigEngineCluster builds engine workers with effectively unlimited
// resources so functional tests are not timing-bound.
func bigEngineCluster(workers, slots int) engine.ClusterSpec {
	spec := engine.ClusterSpec{}
	for i := 0; i < workers; i++ {
		spec.Workers = append(spec.Workers, engine.WorkerSpec{
			ID: fmt.Sprintf("w%d", i), Slots: slots, Cores: 1e9, IOBps: 1e15, NetBps: 1e15,
		})
	}
	return spec
}

func spreadEnginePlan(t *testing.T, g *dataflow.LogicalGraph, numWorkers int) *dataflow.Plan {
	t.Helper()
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	pl := dataflow.NewPlan()
	counts := make([]int, numWorkers)
	for _, op := range g.Operators() {
		for _, task := range phys.TasksOf(op.ID) {
			best := 0
			for w := 1; w < numWorkers; w++ {
				if counts[w] < counts[best] {
					best = w
				}
			}
			pl.Assign(task, best)
			counts[best]++
		}
	}
	return pl
}

// Every benchmark query runs end-to-end on the live engine: the pipeline
// drains, sinks absorb records, and stateful stages produce output.
func TestAllQueriesRunOnEngine(t *testing.T) {
	for _, spec := range AllQueries() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			binding, err := BindEngine(spec, 17)
			if err != nil {
				t.Fatal(err)
			}
			// Neutralize the heavy profiled CPU costs: functional test, not
			// a performance run.
			for op := range binding.PerRecordCPU {
				binding.PerRecordCPU[op] = 0
			}
			plan := spreadEnginePlan(t, spec.Graph, 4)
			job, err := engine.NewJob(spec.Graph, plan, bigEngineCluster(4, 6), binding.Factories, engine.JobOptions{
				RecordsPerSource: 1500,
				Stateful:         binding.Stateful,
				PerRecordCPU:     binding.PerRecordCPU,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.SourceRecords == 0 {
				t.Fatal("no source records")
			}
			if res.SinkRecords == 0 {
				t.Errorf("%s: sink received nothing", spec.Name)
			}
			// Every task was instantiated and reported stats.
			phys, err := dataflow.Expand(spec.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tasks) != phys.NumTasks() {
				t.Errorf("stats for %d tasks, want %d", len(res.Tasks), phys.NumTasks())
			}
		})
	}
}

func TestBindEngineUnknownQuery(t *testing.T) {
	if _, err := BindEngine(QuerySpec{Name: "Q99"}, 0); err == nil {
		t.Error("unknown query accepted")
	}
}

// Cross-validation: the live engine and the analytical simulator agree on
// the *ordering* of placement plans. A plan that packs the heavy operator
// must lose on both substrates.
func TestEngineSimulatorCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	spec := Q1Sliding()
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ref := ReferenceCluster()
	slots, _ := ref.SlotsPerWorker()

	spread := spreadEnginePlan(t, spec.Graph, ref.NumWorkers())
	packed := FlinkWorstCase(phys, slots)

	// Simulator verdict.
	simTput := func(pl *dataflow.Plan) float64 {
		res, err := simulator.Evaluate([]simulator.QueryDeployment{{
			Name: spec.Name, Phys: phys, Plan: pl, SourceRates: spec.SourceRates,
		}}, ref, simulator.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Queries[spec.Name].Throughput
	}
	if simTput(spread) <= simTput(packed) {
		t.Fatalf("simulator: spread %v <= packed %v", simTput(spread), simTput(packed))
	}

	// Engine verdict: same query on constrained workers. The profiled CPU
	// costs are scaled up so the metered per-record cost dominates the
	// operators' real (unmetered) Go work — otherwise both plans hit the
	// same placement-independent ceiling and the comparison is noise.
	binding, err := BindEngine(spec, 23)
	if err != nil {
		t.Fatal(err)
	}
	for op := range binding.PerRecordCPU {
		binding.PerRecordCPU[op] *= 4
	}
	engCluster := engine.ClusterSpec{}
	for i := 0; i < ref.NumWorkers(); i++ {
		engCluster.Workers = append(engCluster.Workers, engine.WorkerSpec{
			ID: fmt.Sprintf("w%d", i), Slots: slots,
			Cores: 1.0, IOBps: 50e6, NetBps: 1e9,
		})
	}
	run := func(pl *dataflow.Plan) float64 {
		job, err := engine.NewJob(spec.Graph, pl, engCluster, binding.Factories, engine.JobOptions{
			RecordsPerSource: 800,
			Stateful:         binding.Stateful,
			PerRecordCPU:     binding.PerRecordCPU,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.SourceRecords) / res.Elapsed.Seconds()
	}
	spreadTput := run(spread)
	packedTput := run(packed)
	if spreadTput <= packedTput {
		t.Errorf("engine: spread %v rec/s <= packed %v rec/s (disagrees with simulator)", spreadTput, packedTput)
	}
}

// TestQ4JoinEmitsTypedPairs: inc-join's output is the typed pair of its two
// inputs in graph order — [2]any{Auction, Person}: src-auction is input 0,
// the person filter input 1 — whichever side arrived first. The side that
// waited in join state comes back as the struct it was stored as, not as the
// generic map a JSON round trip used to make of it.
func TestQ4JoinEmitsTypedPairs(t *testing.T) {
	spec := Q4Join()
	binding, err := BindEngine(spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	pairs, wrong := 0, ""
	binding.Factories["sink"] = sinkFactory(func(r engine.Record) {
		mu.Lock()
		defer mu.Unlock()
		pairs++
		pair, _ := r.Value.([2]any)
		_, okA := pair[0].(Auction)
		_, okP := pair[1].(Person)
		if (!okA || !okP) && wrong == "" {
			wrong = fmt.Sprintf("%#v", r.Value)
		}
	})
	job, err := engine.NewJob(spec.Graph, spreadEnginePlan(t, spec.Graph, 4), bigEngineCluster(4, 6), binding.Factories, engine.JobOptions{
		RecordsPerSource: 1500,
		Stateful:         binding.Stateful,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if pairs == 0 || wrong != "" {
		t.Errorf("%d joined pairs; first that is not [2]any{Auction, Person}: %s", pairs, wrong)
	}
}
