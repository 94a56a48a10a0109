package controller

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/telemetry"
)

// RecoveryOptions configures a fault-injection run on the live engine.
type RecoveryOptions struct {
	// Seed drives the deterministic event generators and randomized
	// placement strategies.
	Seed int64
	// RecordsPerSource is the number of records each source task generates.
	RecordsPerSource int64
	// SnapshotInterval is the checkpoint barrier interval in records per
	// source task (must be > 0: worker kills are epoch-aligned).
	SnapshotInterval int64
	// KillWorker is the worker to kill. A negative value selects the worker
	// hosting the most tasks under the initial plan (ties to the lowest
	// index), so the fault hits comparable load under every strategy.
	KillWorker int
	// KillAtEpoch is the checkpoint epoch at which the worker dies.
	KillAtEpoch int64
	// ChannelCapacity is the engine's per-task inbox bound (0 = default).
	ChannelCapacity int
	// Transport selects the engine's data-plane exchange discipline
	// ("unary" or "batched"; "" = engine default). BatchSize and
	// BatchLinger tune the batched transport and are ignored by unary; see
	// engine.JobOptions for defaulting and clamping.
	Transport   string
	BatchSize   int
	BatchLinger time.Duration
	// DisableFusion turns off operator chaining, forcing every Forward edge
	// through the exchange layer (see engine.JobOptions.DisableFusion).
	DisableFusion bool
	// CPUCostScale multiplies the profiled per-record CPU costs (0 = 1).
	CPUCostScale float64
	// NoRecovery disables reconciliation: the kill degrades the job instead
	// of triggering a restart, exposing the lost throughput.
	NoRecovery bool
	// Telemetry, when set, is threaded through to the engine (latency
	// histograms, saturation gauges, checkpoint/fault events) and receives
	// the controller's own placement-decision and reschedule events.
	Telemetry *telemetry.Telemetry
}

// RecoveryOutcome reports one fault-injection run end to end: how long the
// controller took to decide the initial and the replacement placements, what
// the failure cost in downtime and reprocessing, and how the job performed
// after recovery.
type RecoveryOutcome struct {
	Query    string
	Strategy string
	// Transport is the data-plane exchange discipline the job ran under.
	Transport string
	// KilledWorker is the worker index that died.
	KilledWorker int
	// TasksOnKilled is the number of tasks the initial plan had placed on
	// the killed worker.
	TasksOnKilled int
	// PlacementTime is the initial placement decision time.
	PlacementTime time.Duration
	// ReplaceTime is the total re-placement decision time across restarts
	// (the controller-side share of the recovery latency).
	ReplaceTime time.Duration
	// MovedTasks counts tasks whose worker changed in the recovery plan.
	MovedTasks int
	// Recovered reports whether the job restarted from a checkpoint (false
	// when NoRecovery, when no snapshot completed in time, or when the
	// fault never fired).
	Recovered bool
	// Backpressure is the peak per-task backpressure fraction of the run
	// (backpressure time / elapsed), a proxy for post-recovery health.
	Backpressure float64
	// Result is the engine's full job result (downtime, reprocessed
	// records, lost records, metrics registry, ...).
	Result *engine.JobResult
}

// RunRecovery deploys a query on the live engine under the given strategy,
// kills a worker at a checkpoint epoch, and — unless NoRecovery — runs the
// reconciliation loop: detect the failure, drop the dead worker from the
// cluster view, re-run the placement strategy over the survivors, and
// re-deploy from the last complete checkpoint. This is the controller-side
// workflow the paper's §7 discussion sketches for failure handling: placement
// quality shows up twice, once as re-placement decision time (the scheduler
// is on the critical path of recovery) and once as post-recovery
// backpressure on the shrunken cluster.
//
// The controller's contributions are exported on the result's metrics
// registry as "controller.placement_seconds", "controller.replacement_seconds"
// and "controller.tasks_moved", alongside the engine's job.* recovery series.
func RunRecovery(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, opts RecoveryOptions) (*RecoveryOutcome, error) {
	if opts.RecordsPerSource <= 0 {
		return nil, fmt.Errorf("controller: RecordsPerSource must be > 0")
	}
	if opts.SnapshotInterval <= 0 {
		return nil, fmt.Errorf("controller: SnapshotInterval must be > 0 (kills are epoch-aligned)")
	}
	st, err := startLiveStudy(ctx, spec, c, strat, opts.Seed, opts.CPUCostScale, opts.Telemetry)
	if err != nil {
		return nil, err
	}
	plan := st.plan

	kill := opts.KillWorker
	if kill < 0 {
		kill = busiestWorker(plan, c.NumWorkers())
	}
	if kill >= c.NumWorkers() {
		return nil, fmt.Errorf("controller: kill worker %d out of range (%d workers)", kill, c.NumWorkers())
	}
	onKilled := len(plan.TasksOn(kill))

	jobOpts := engine.JobOptions{
		ChannelCapacity:  opts.ChannelCapacity,
		Transport:        opts.Transport,
		BatchSize:        opts.BatchSize,
		BatchLinger:      opts.BatchLinger,
		DisableFusion:    opts.DisableFusion,
		RecordsPerSource: opts.RecordsPerSource,
		PerRecordCPU:     st.binding.PerRecordCPU,
		Stateful:         st.binding.Stateful,
		SnapshotInterval: opts.SnapshotInterval,
		FaultPlan: engine.FaultPlan{
			KillWorkers: []engine.WorkerKill{{Worker: kill, AtEpoch: opts.KillAtEpoch}},
		},
		Telemetry: opts.Telemetry,
	}
	if !opts.NoRecovery {
		jobOpts.OnFailure = func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			t := time.Now()
			next, err := Replace(ctx, st.phys, c, strat, st.usage, ev.DeadWorkers, opts.Seed+int64(ev.Attempt), plan)
			if err != nil {
				return nil, err
			}
			moved := 0
			for _, task := range st.phys.Tasks() {
				if next.MustWorker(task) != plan.MustWorker(task) {
					moved++
				}
			}
			st.replaced(time.Since(t), moved, telemetry.Event{Worker: ev.WorkerID, Attempt: ev.Attempt,
				Attrs: map[string]any{"dead_workers": len(ev.DeadWorkers)}})
			return next, nil
		}
	}

	job, err := engine.NewJob(spec.Graph, plan, EngineCluster(c), st.binding.Factories, jobOpts)
	if err != nil {
		return nil, err
	}
	res, err := job.Run(ctx)
	if err != nil {
		return nil, err
	}
	st.export(res)

	out := &RecoveryOutcome{
		Query:         spec.Name,
		Strategy:      strat.Name(),
		Transport:     job.Transport(),
		KilledWorker:  kill,
		TasksOnKilled: onKilled,
		PlacementTime: st.placementTime,
		ReplaceTime:   st.replaceTime,
		MovedTasks:    st.moved,
		Recovered:     res.Recoveries > 0,
		Result:        res,
	}
	for _, ts := range res.Tasks {
		if res.Elapsed > 0 {
			if f := ts.BackpressureT.Seconds() / res.Elapsed.Seconds(); f > out.Backpressure {
				out.Backpressure = f
			}
		}
	}
	return out, nil
}

// liveStudy is what RunRecovery and RunRescale share: the initial placement
// and its decision event, the bound engine operators, and the bookkeeping of
// the re-placements the engine's hooks ask for.
type liveStudy struct {
	spec          nexmark.QuerySpec
	strat         placement.Strategy
	phys          *dataflow.PhysicalGraph
	usage         *costmodel.Usage
	plan          *dataflow.Plan
	placementTime time.Duration
	binding       *nexmark.EngineBinding
	tracer        *telemetry.Tracer
	// The engine calls its hooks on Job.Run's goroutine, which is the
	// study's own, so the tallies need no lock.
	replaceTime time.Duration
	moved       int
}

func startLiveStudy(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, seed int64, cpuCostScale float64, tel *telemetry.Telemetry) (*liveStudy, error) {
	st := &liveStudy{spec: spec, strat: strat, tracer: tel.Tracer()}
	var err error
	if st.phys, err = dataflow.Expand(spec.Graph); err != nil {
		return nil, err
	}
	if st.usage, err = usageFor(spec.Graph, spec.SourceRates); err != nil {
		return nil, err
	}
	start := time.Now()
	if st.plan, err = strat.Place(ctx, st.phys, c, st.usage, seed); err != nil {
		return nil, fmt.Errorf("controller: initial placement: %w", err)
	}
	st.placementTime = time.Since(start)
	st.tracer.Emit(telemetry.Event{
		Kind:  telemetry.EventDecision,
		Query: spec.Name,
		Attrs: map[string]any{
			"phase":        "initial-placement",
			"strategy":     strat.Name(),
			"tasks":        st.phys.NumTasks(),
			"placement_ms": st.placementTime.Seconds() * 1e3,
		},
	})
	if st.binding, err = bindScaled(spec, seed, cpuCostScale); err != nil {
		return nil, err
	}
	return st, nil
}

// bindScaled binds the query's engine operators with the profiled
// per-record CPU costs multiplied by scale (0 = 1).
func bindScaled(spec nexmark.QuerySpec, seed int64, scale float64) (*nexmark.EngineBinding, error) {
	binding, err := nexmark.BindEngine(spec, seed)
	if err != nil {
		return nil, err
	}
	if scale > 0 && scale != 1 {
		for op := range binding.PerRecordCPU {
			binding.PerRecordCPU[op] *= scale
		}
	}
	return binding, nil
}

// replaced books one successful re-placement and emits its reschedule
// event; ev carries the caller's identifying fields and extra attrs.
func (st *liveStudy) replaced(elapsed time.Duration, moved int, ev telemetry.Event) {
	st.replaceTime += elapsed
	st.moved += moved
	ev.Kind = telemetry.EventReschedule
	ev.Query = st.spec.Name
	ev.Attrs["strategy"] = st.strat.Name()
	ev.Attrs["moved_tasks"] = moved
	ev.Attrs["replace_ms"] = elapsed.Seconds() * 1e3
	st.tracer.Emit(ev)
}

// export publishes the controller's share of the run on the result's
// registry, beside the engine's job.* series.
func (st *liveStudy) export(res *engine.JobResult) {
	res.Metrics.Gauge("controller.placement_seconds").Set(st.placementTime.Seconds())
	res.Metrics.Gauge("controller.replacement_seconds").Set(st.replaceTime.Seconds())
	res.Metrics.Counter("controller.tasks_moved").Inc(int64(st.moved))
}

// Replace is the reconciliation step: given the dead workers, it restricts
// the cluster view to the survivors (keeping a mapping back to real worker
// indices), re-runs the placement strategy over that view, and remaps the
// resulting plan onto the original cluster. It fails explicitly when the
// survivors cannot host the graph — never returning a silent partial plan.
//
// prev, when non-nil, is the plan that was running when the failure hit. Its
// surviving assignments are translated onto the restricted view and passed to
// warm-capable strategies, so the re-placement search starts from the layout
// the failure left mostly intact (assignments on dead workers are dropped).
func Replace(ctx context.Context, phys *dataflow.PhysicalGraph, c *cluster.Cluster, strat placement.Strategy, u *costmodel.Usage, deadWorkers []int, seed int64, prev *dataflow.Plan) (*dataflow.Plan, error) {
	dead := make(map[int]bool, len(deadWorkers))
	for _, w := range deadWorkers {
		dead[w] = true
	}
	var viewWorkers []cluster.Worker
	var backing []int
	free := 0
	viewOf := make(map[int]int, c.NumWorkers())
	for w := 0; w < c.NumWorkers(); w++ {
		if dead[w] {
			continue
		}
		viewOf[w] = len(viewWorkers)
		viewWorkers = append(viewWorkers, c.Worker(w))
		backing = append(backing, w)
		free += c.Worker(w).Slots
	}
	if len(viewWorkers) == 0 {
		return nil, fmt.Errorf("controller: no surviving workers")
	}
	if free < phys.NumTasks() {
		return nil, fmt.Errorf("controller: survivors have %d slots for %d tasks", free, phys.NumTasks())
	}
	view, err := cluster.New(viewWorkers)
	if err != nil {
		return nil, err
	}
	var vplan *dataflow.Plan
	wp, warmable := strat.(placement.WarmPlacer)
	if warmable && prev != nil {
		vprev := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			if w, ok := prev.Worker(t); ok {
				if vw, alive := viewOf[w]; alive {
					vprev.Assign(t, vw)
				}
			}
		}
		vplan, err = wp.PlaceWarm(ctx, phys, view, u, seed, vprev)
	} else {
		vplan, err = strat.Place(ctx, phys, view, u, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("controller: re-placement on survivors: %w", err)
	}
	real := dataflow.NewPlan()
	for _, t := range phys.Tasks() {
		vw, ok := vplan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("controller: re-placement left task %v unassigned", t)
		}
		real.Assign(t, backing[vw])
	}
	return real, nil
}

// busiestWorker returns the worker hosting the most tasks (ties to the
// lowest index).
func busiestWorker(plan *dataflow.Plan, numWorkers int) int {
	counts := plan.WorkerCounts(numWorkers)
	best := 0
	for w, n := range counts {
		if n > counts[best] {
			best = w
		}
	}
	return best
}
