package controller

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
)

// placeCall is one strategy invocation as the recording stub saw it, with
// plans translated from the view it was handed back onto real worker
// indices (Replace restricts the view to survivors and renumbers them).
type placeCall struct {
	phys    *dataflow.PhysicalGraph
	workers []int          // real indices of the view's workers
	warm    *dataflow.Plan // the warm start, nil for a cold Place
	plan    *dataflow.Plan // what the strategy answered
}

// recordingStrategy is a WarmPlacer that spreads tasks evenly and records
// every call — the probe for "which path asked the strategy, with what".
type recordingStrategy struct {
	mu    sync.Mutex
	calls []placeCall
}

func (s *recordingStrategy) Name() string { return "recording" }

func (s *recordingStrategy) Place(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, seed int64) (*dataflow.Plan, error) {
	return s.PlaceWarm(ctx, p, c, u, seed, nil)
}

func (s *recordingStrategy) PlaceWarm(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, seed int64, prev *dataflow.Plan) (*dataflow.Plan, error) {
	plan, err := placement.FlinkEvenly{}.Place(ctx, p, c, u, seed)
	if err != nil {
		return nil, err
	}
	call := placeCall{phys: p}
	for i := 0; i < c.NumWorkers(); i++ {
		var real int
		if _, err := fmt.Sscanf(c.Worker(i).ID, "w%d", &real); err != nil {
			return nil, err
		}
		call.workers = append(call.workers, real)
	}
	onReal := func(view *dataflow.Plan) *dataflow.Plan {
		if view == nil {
			return nil
		}
		out := dataflow.NewPlan()
		view.Each(func(t dataflow.TaskID, w int) { out.Assign(t, call.workers[w]) })
		return out
	}
	call.warm, call.plan = onReal(prev), onReal(plan)
	s.mu.Lock()
	s.calls = append(s.calls, call)
	s.mu.Unlock()
	return plan, nil
}

func (s *recordingStrategy) recorded() []placeCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]placeCall(nil), s.calls...)
}

// restrictedTo is plan without the tasks phys lacks and without the
// assignments on dead workers — the warm start Replace must derive from it.
func restrictedTo(plan *dataflow.Plan, phys *dataflow.PhysicalGraph, dead ...int) *dataflow.Plan {
	out := dataflow.NewPlan()
	for _, t := range phys.Tasks() {
		w, ok := plan.Worker(t)
		if !ok {
			continue
		}
		alive := true
		for _, d := range dead {
			alive = alive && w != d
		}
		if alive {
			out.Assign(t, w)
		}
	}
	return out
}

// deployedPlan reads the plan the final attempt ran under off the result.
func deployedPlan(res *engine.JobResult) *dataflow.Plan {
	out := dataflow.NewPlan()
	for t, st := range res.Tasks {
		out.Assign(t, st.Worker)
	}
	return out
}

func movedBetween(from, to *dataflow.Plan) int {
	moved := 0
	to.Each(func(t dataflow.TaskID, w int) {
		if pw, ok := from.Worker(t); ok && pw != w {
			moved++
		}
	})
	return moved
}

// q1Window is Q1-sliding with the window operator at the given parallelism.
func q1Window(t *testing.T, parallelism int) nexmark.QuerySpec {
	t.Helper()
	stock, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	g, err := stock.Graph.Rescale(map[dataflow.OperatorID]int{"slide-win": parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return nexmark.QuerySpec{Name: stock.Name, Graph: g, SourceRates: stock.SourceRates}
}

// TestLiveRescaleIsReplacedByStrategy pins that a live rescale is re-placed
// by the run's strategy on both launch paths: exactly one call after the
// initial placement, on the rescaled physical graph, warm-started from the
// running plan, and its answer is what gets deployed. A plan-only deployment
// (nil strategy) still rescales, through the engine's keep-survivors default.
func TestLiveRescaleIsReplacedByStrategy(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	const to = 10
	c, err := cluster.Homogeneous(distWorkers, spec.Graph.TotalTasks(), 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.JobOptions{
		RecordsPerSource: distRecords,
		SnapshotInterval: distSnapshot,
		SourceRate:       map[dataflow.OperatorID]float64{"src": 20000},
		Rescales:         []engine.RescalePlan{{Op: "slide-win", Parallelism: to, AtEpoch: 2}},
	}
	check := func(t *testing.T, strat *recordingStrategy, d *Deployment, res *engine.JobResult) {
		t.Helper()
		if res.Rescales != 1 || res.LostRecords != 0 {
			t.Fatalf("rescales=%d lost=%d, want 1 and 0", res.Rescales, res.LostRecords)
		}
		calls := strat.recorded()
		if len(calls) != 2 {
			t.Fatalf("strategy called %d times, want 2 (initial placement + one re-placement)", len(calls))
		}
		re := calls[1]
		if got := len(re.phys.TasksOf("slide-win")); got != to {
			t.Errorf("re-placement saw %d slide-win tasks, want the rescaled %d", got, to)
		}
		if want := restrictedTo(d.Plan, re.phys); re.warm == nil || !re.warm.Equal(want) {
			t.Errorf("re-placement warm start:\n%v\nwant the running plan:\n%v", re.warm, want)
		}
		if got := deployedPlan(res); !got.Equal(re.plan) {
			t.Errorf("deployed plan:\n%v\nwant the strategy's answer:\n%v", got, re.plan)
		}
		if snap := res.Metrics.Snapshot(); snap["controller.replacement_seconds"] <= 0 {
			t.Error("controller.replacement_seconds not exported")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	t.Run("in-process", func(t *testing.T) {
		strat := &recordingStrategy{}
		d := mustLaunch(t, spec, c, strat, LaunchOptions{Seed: distSeed})
		out, err := d.Run(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(t, strat, d, out.Result)
	})
	t.Run("coordinator", func(t *testing.T) {
		strat := &recordingStrategy{}
		d := mustLaunch(t, spec, c, strat, LaunchOptions{Seed: distSeed})
		var logMu sync.Mutex
		var replaced int
		co, err := d.Coordinator("127.0.0.1:0", distWorkers, opts, CoordinatorOptions{
			HeartbeatTimeout: 5 * time.Second,
			Logf: func(format string, args ...any) {
				if strings.HasPrefix(fmt.Sprintf(format, args...), "re-placement (recording): ") {
					logMu.Lock()
					replaced++
					logMu.Unlock()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := joinDistWorkers(t, ctx, co, distWorkers, nil).co.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		check(t, strat, d, res)
		logMu.Lock()
		defer logMu.Unlock()
		if replaced != 1 {
			t.Errorf("coordinator logged %d re-placements, want 1", replaced)
		}
	})
	t.Run("plan-only", func(t *testing.T) {
		placed := mustLaunch(t, spec, c, placement.FlinkEvenly{}, LaunchOptions{Seed: distSeed})
		d := mustLaunch(t, spec, c, nil, LaunchOptions{Seed: distSeed, Plan: placed.Plan})
		out, err := d.Run(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Rescales != 1 || out.Result.LostRecords != 0 {
			t.Fatalf("rescales=%d lost=%d, want 1 and 0", out.Result.Rescales, out.Result.LostRecords)
		}
		// Keep-survivors: nothing that was running moved.
		if moved := movedBetween(placed.Plan, deployedPlan(out.Result)); moved != 0 || out.MovedTasks != 0 {
			t.Errorf("plan-only rescale moved %d running tasks (outcome says %d), want 0", moved, out.MovedTasks)
		}
	})
}

// TestLiveKillThenRescale is the run no launcher could express before the
// re-placement closure tracked state: a worker dies at epoch 2, the window
// operator scales 4→6 at epoch 4, and the rescale's re-placement must stay
// off the dead worker — the supervisor rejects any plan that does not.
func TestLiveKillThenRescale(t *testing.T) {
	spec := q1Window(t, 4)
	c, err := cluster.Homogeneous(4, spec.Graph.TotalTasks(), 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		SourceRate:       map[dataflow.OperatorID]float64{"src": 10000},
		Transport:        engine.TransportBatched,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	plain, err := mustLaunch(t, spec, c, placement.FlinkEvenly{}, LaunchOptions{Seed: 7}).Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}

	const victim = 1
	strat := &recordingStrategy{}
	opts.FaultPlan.KillWorkers = []engine.WorkerKill{{Worker: victim, AtEpoch: 2}}
	opts.Rescales = []engine.RescalePlan{{Op: "slide-win", Parallelism: 6, AtEpoch: 4}}
	out, err := mustLaunch(t, spec, c, strat, LaunchOptions{Seed: 7}).Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if res.LostRecords != 0 || res.Recoveries != 1 || res.Rescales != 1 {
		t.Fatalf("lost=%d recoveries=%d rescales=%d, want 0, 1, 1", res.LostRecords, res.Recoveries, res.Rescales)
	}
	if res.SinkRecords != plain.Result.SinkRecords {
		t.Errorf("sink records = %d, want the undisturbed run's %d", res.SinkRecords, plain.Result.SinkRecords)
	}
	calls := strat.recorded()
	if len(calls) != 3 {
		t.Fatalf("strategy called %d times, want 3 (initial, recovery, rescale)", len(calls))
	}
	for i, call := range calls[1:] {
		if n := len(call.plan.TasksOn(victim)); n != 0 {
			t.Errorf("re-placement %d put %d tasks on dead worker %d", i+1, n, victim)
		}
	}
	if n := len(deployedPlan(res).TasksOn(victim)); n != 0 {
		t.Errorf("final attempt ran %d tasks on dead worker %d", n, victim)
	}
	// The rescale's warm start is the recovery's plan, not the initial one.
	if want := restrictedTo(calls[1].plan, calls[2].phys, victim); !calls[2].warm.Equal(want) {
		t.Errorf("rescale warm start:\n%v\nwant the recovery plan:\n%v", calls[2].warm, want)
	}
}

// TestLiveTwoKills pins that the closure tracks the running plan: the second
// re-placement warm-starts from the first re-placement's plan, and tasks
// moved are counted against the plan each one replaced.
func TestLiveTwoKills(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Homogeneous(4, spec.Graph.TotalTasks(), 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	strat := &recordingStrategy{}
	d := mustLaunch(t, spec, c, strat, LaunchOptions{Seed: 7})
	out, err := d.Run(ctx, engine.JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		SourceRate:       map[dataflow.OperatorID]float64{"src": 10000},
		FaultPlan: engine.FaultPlan{KillWorkers: []engine.WorkerKill{
			{Worker: 0, AtEpoch: 2}, {Worker: 2, AtEpoch: 5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := out.Result; res.Recoveries != 2 || res.LostRecords != 0 {
		t.Fatalf("recoveries=%d lost=%d, want 2 and 0", res.Recoveries, res.LostRecords)
	}
	calls := strat.recorded()
	if len(calls) != 3 {
		t.Fatalf("strategy called %d times, want 3 (initial + two re-placements)", len(calls))
	}
	first, second := calls[1], calls[2]
	if want := restrictedTo(d.Plan, d.Phys, 0); !first.warm.Equal(want) {
		t.Errorf("first re-placement warm start:\n%v\nwant the initial plan's survivors:\n%v", first.warm, want)
	}
	if want := restrictedTo(first.plan, d.Phys, 0, 2); !second.warm.Equal(want) {
		t.Errorf("second re-placement warm start:\n%v\nwant the first re-placement's survivors:\n%v", second.warm, want)
	}
	if want := movedBetween(d.Plan, first.plan) + movedBetween(first.plan, second.plan); out.MovedTasks != want {
		t.Errorf("MovedTasks = %d, want %d (each re-placement against the plan it replaced)", out.MovedTasks, want)
	}
}
