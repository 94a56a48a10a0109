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

// This file is the one launch path onto the live engine: place → bind →
// re-placement hooks → run. Every live run of a built-in query — the CLIs,
// the studies, the examples, in-process or across worker processes — is a
// Launch followed by Deployment.Run or Deployment.Coordinator.

// LaunchOptions is what launching a query needs beyond the engine's own
// JobOptions, which callers hand to Run or Coordinator directly.
type LaunchOptions struct {
	// Seed drives the event generators, randomized strategies and (offset by
	// attempt or epoch) every re-placement.
	Seed int64
	// CPUCostScale multiplies the profiled per-record CPU costs (0 = 1).
	CPUCostScale float64
	// Plan, when set, is deployed as given instead of asking the strategy
	// for the initial placement (a joint multi-query placement, a
	// hand-built worst case).
	Plan *dataflow.Plan
	// NoRecovery leaves worker deaths un-reconciled: in-process the kill
	// degrades the job instead of restarting it, exposing the lost
	// throughput; on a coordinator it is fatal.
	NoRecovery bool
}

// Launch places spec on c with strat — or adopts lo.Plan — and binds its
// engine operators. A nil strat makes the deployment plan-only: nothing
// re-places it, so rescales fall back to the engine's keep-survivors
// default and worker deaths are not recovered.
func Launch(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, lo LaunchOptions) (*Deployment, error) {
	d := &Deployment{Spec: spec, Plan: lo.Plan, cluster: c, strat: strat, launch: lo}
	var err error
	if d.Phys, err = dataflow.Expand(spec.Graph); err != nil {
		return nil, err
	}
	if d.usage, err = UsageOf(spec.Graph, spec.SourceRates); err != nil {
		return nil, err
	}
	if d.Plan == nil {
		if strat == nil {
			return nil, fmt.Errorf("controller: launch needs a strategy or a plan")
		}
		start := time.Now()
		if d.Plan, err = strat.Place(ctx, d.Phys, c, d.usage, lo.Seed); err != nil {
			return nil, fmt.Errorf("controller: initial placement: %w", err)
		}
		d.PlacementTime = time.Since(start)
	}
	if d.binding, err = bindScaled(spec, lo.Seed, lo.CPUCostScale); err != nil {
		return nil, err
	}
	return d, nil
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

// strategyName names the deployment's strategy in events and outcomes.
func (d *Deployment) strategyName() string {
	if d.strat == nil {
		return "given"
	}
	return d.strat.Name()
}

// Outcome reports one live run end to end: the controller's decision times,
// how much of the plan its re-placements disturbed, and the engine's full
// result (downtime, reprocessed and lost records, metrics registry, ...).
type Outcome struct {
	Query    string
	Strategy string
	// Transport is the data-plane exchange discipline the job ran under.
	Transport string
	// PlacementTime is the initial placement decision time.
	PlacementTime time.Duration
	// ReplaceTime is the total re-placement decision time across recoveries
	// and rescales — the controller's share of the measured downtime.
	ReplaceTime time.Duration
	// MovedTasks counts tasks whose worker changed, summed over every
	// re-placement against the plan it replaced; tasks a rescale created
	// are not "moved".
	MovedTasks int
	Result     *engine.JobResult
}

// Run executes the deployment in-process. opts are the engine's own options;
// Stateful and PerRecordCPU default to the query's binding where left nil
// (pass an empty map to run with operator CPU uncharged). The re-placement
// closure is installed as OnRescale and, unless NoRecovery, OnFailure; a
// kill in opts.FaultPlan and a schedule in opts.Rescales may share one run.
// The controller's share is exported on the result's registry as
// "controller.placement_seconds", "controller.replacement_seconds" and
// "controller.tasks_moved", beside the engine's job.* series. A Deployment
// may be Run any number of times; each run re-places from d.Plan.
func (d *Deployment) Run(ctx context.Context, opts engine.JobOptions) (*Outcome, error) {
	if d.binding == nil {
		return nil, fmt.Errorf("controller: deployment of %s was not launched", d.Spec.Name)
	}
	if opts.Stateful == nil {
		opts.Stateful = d.binding.Stateful
	}
	if opts.PerRecordCPU == nil {
		opts.PerRecordCPU = d.binding.PerRecordCPU
	}
	emit := opts.Telemetry.Tracer().Emit
	r := d.newReplacer(ctx, emit, nil)
	if d.strat != nil {
		opts.OnRescale = func(ev engine.RescaleEvent, prev *dataflow.Plan, _ *dataflow.PhysicalGraph) (*dataflow.Plan, error) {
			return r.onRescale(ev, prev)
		}
		if !d.launch.NoRecovery {
			opts.OnFailure = r.onFailure
		}
	}
	d.emitDecision(emit)
	job, err := engine.NewJob(d.Spec.Graph, d.Plan, EngineCluster(d.cluster), d.binding.Factories, opts)
	if err != nil {
		return nil, err
	}
	res, err := job.Run(ctx)
	if err != nil {
		return nil, err
	}
	r.export(res)
	return &Outcome{
		Query:         d.Spec.Name,
		Strategy:      d.strategyName(),
		Transport:     job.Transport(),
		PlacementTime: d.PlacementTime,
		ReplaceTime:   r.elapsed,
		MovedTasks:    r.moved,
		Result:        res,
	}, nil
}

// Coordinator binds the control plane that runs the deployment across
// `workers` joined worker processes (JoinCluster with NexmarkBuilderWith on
// their side, so the query must be a built-in one). The deploy spec is
// derived from the same engine options an in-process Run takes —
// opts.Rescales joins copts.Rescales — and the same re-placement closure
// answers worker deaths and rescales; the coordinator's result carries the
// same controller.* series.
func (d *Deployment) Coordinator(listen string, workers int, opts engine.JobOptions, copts CoordinatorOptions) (*Coordinator, error) {
	spec := deploySpecOf(opts)
	spec.Query, spec.Seed, spec.CPUCostScale = d.Spec.Name, d.launch.Seed, d.launch.CPUCostScale
	spec.Workers = EngineCluster(d.cluster).Workers
	var err error
	if spec.Assign, err = AssignmentsOf(d.Phys, d.Plan); err != nil {
		return nil, err
	}
	copts.Rescales = append(copts.Rescales, opts.Rescales...)
	r := d.newReplacer(context.Background(), nil, copts.Logf)
	if d.strat != nil {
		copts.RescaleAssign = r.onRescale
		if !d.launch.NoRecovery {
			copts.Replan = r.onFailure
		}
	}
	co, err := NewCoordinator(listen, spec, workers, copts)
	if err != nil {
		return nil, err
	}
	co.replacer, r.emit = r, co.trace
	d.emitDecision(co.trace)
	return co, nil
}

// deploySpecOf and DeploySpec.jobOptions are each other's inverse over the
// engine options every worker process must agree on with the coordinator: a
// new one is added to both, here.
func deploySpecOf(o engine.JobOptions) DeploySpec {
	return DeploySpec{
		RecordsPerSource: o.RecordsPerSource,
		SnapshotInterval: o.SnapshotInterval,
		ChannelCapacity:  o.ChannelCapacity,
		BatchSize:        o.BatchSize,
		BatchLinger:      o.BatchLinger,
		DisableFusion:    o.DisableFusion,
		KeyGroups:        o.KeyGroups,
	}
}

func (s DeploySpec) jobOptions() engine.JobOptions {
	return engine.JobOptions{
		RecordsPerSource: s.RecordsPerSource,
		SnapshotInterval: s.SnapshotInterval,
		ChannelCapacity:  s.ChannelCapacity,
		Transport:        engine.TransportNetwork,
		BatchSize:        s.BatchSize,
		BatchLinger:      s.BatchLinger,
		DisableFusion:    s.DisableFusion,
		KeyGroups:        s.KeyGroups,
	}
}

// NexmarkBuilderWith resolves DeploySpec.Query against the built-in
// benchmark queries — the standard builder for caplive worker processes —
// with the worker's telemetry hub (nil for none) wired into every built job,
// so each attempt's engine instrumentation (wire counters, latency
// histograms, saturation gauges, tracer events) lands in the hub the
// heartbeat sampler and trace feed read from.
func NexmarkBuilderWith(tel *telemetry.Telemetry) JobBuilder {
	return func(spec DeploySpec) (*engine.Job, error) {
		q, err := nexmark.ByName(spec.Query)
		if err != nil {
			return nil, err
		}
		binding, err := bindScaled(q, spec.Seed, spec.CPUCostScale)
		if err != nil {
			return nil, err
		}
		graph := q.Graph
		if len(spec.Rescaled) > 0 {
			graph, err = graph.Rescale(spec.Rescaled)
			if err != nil {
				return nil, fmt.Errorf("controller: applying rescale overrides: %w", err)
			}
		}
		opts := spec.jobOptions()
		opts.Stateful, opts.PerRecordCPU, opts.Telemetry = binding.Stateful, binding.PerRecordCPU, tel
		return engine.NewJob(graph, spec.Plan(), engine.ClusterSpec{Workers: spec.Workers}, binding.Factories, opts)
	}
}

// emitDecision records the initial placement on the run's timeline.
func (d *Deployment) emitDecision(emit func(telemetry.Event)) {
	emit(telemetry.Event{
		Kind:  telemetry.EventDecision,
		Query: d.Spec.Name,
		Attrs: map[string]any{
			"phase":        "initial-placement",
			"strategy":     d.strategyName(),
			"tasks":        d.Phys.NumTasks(),
			"placement_ms": d.PlacementTime.Seconds() * 1e3,
		},
	})
}

// replacer is the one re-placement closure of a live run: the engine's
// OnFailure and OnRescale hooks in-process, the coordinator's Replan and
// RescaleAssign across processes. It owns what a re-placement must know
// about the run so far — the topology actually running (the query's graph
// with every applied parallelism override), the plan actually deployed —
// and takes the dead set from the event, which lists every worker lost so
// far. Each re-placement is Replace over the survivors, warm-started from
// the running plan, and tasks moved are counted against that plan. The
// supervisor calls its hooks from the one goroutine driving the run, so the
// state needs no lock.
type replacer struct {
	d    *Deployment
	ctx  context.Context
	emit func(telemetry.Event)
	logf func(format string, args ...any) // nil = silent

	over  map[dataflow.OperatorID]int
	phys  *dataflow.PhysicalGraph
	usage *costmodel.Usage
	plan  *dataflow.Plan

	elapsed time.Duration
	moved   int
}

func (d *Deployment) newReplacer(ctx context.Context, emit func(telemetry.Event), logf func(string, ...any)) *replacer {
	return &replacer{d: d, ctx: ctx, emit: emit, logf: logf,
		over: make(map[dataflow.OperatorID]int), phys: d.Phys, usage: d.usage, plan: d.Plan}
}

// onFailure re-places after a worker death; any other fault restarts in
// place (a nil plan keeps the current placement).
func (r *replacer) onFailure(ev engine.FailureEvent) (*dataflow.Plan, error) {
	if ev.Kind != engine.FaultKillWorker {
		return nil, nil
	}
	return r.replace(ev.DeadWorkers, int64(ev.Attempt), telemetry.Event{Worker: ev.WorkerID, Attempt: ev.Attempt,
		Attrs: map[string]any{"dead_workers": len(ev.DeadWorkers)}})
}

// onRescale re-places the rescaled topology, pricing the usage model on the
// parallelisms actually running. The supervisor's view of the previous plan
// is the closure's own.
func (r *replacer) onRescale(ev engine.RescaleEvent, _ *dataflow.Plan) (*dataflow.Plan, error) {
	r.over[ev.Op] = ev.NewParallelism
	g, err := r.d.Spec.Graph.Rescale(r.over)
	if err == nil {
		r.phys, err = dataflow.Expand(g)
	}
	if err == nil {
		r.usage, err = UsageOf(g, r.d.Spec.SourceRates)
	}
	if err != nil {
		return nil, fmt.Errorf("controller: rescaled topology: %w", err)
	}
	return r.replace(ev.DeadWorkers, ev.Epoch, telemetry.Event{Op: string(ev.Op), Epoch: ev.Epoch,
		Attrs: map[string]any{"from": ev.OldParallelism, "to": ev.NewParallelism}})
}

// replace runs the strategy over the survivors, adopts its plan as the
// running one, books the cost and emits the reschedule event; ev carries the
// caller's identifying fields and attrs.
func (r *replacer) replace(dead []int, salt int64, ev telemetry.Event) (*dataflow.Plan, error) {
	start := time.Now()
	next, err := Replace(r.ctx, r.phys, r.d.cluster, r.d.strat, r.usage, dead, r.d.launch.Seed+salt, r.plan)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	moved := 0
	for _, t := range r.phys.Tasks() {
		if w, ok := r.plan.Worker(t); ok && next.MustWorker(t) != w {
			moved++
		}
	}
	r.plan = next
	r.elapsed += elapsed
	r.moved += moved
	ev.Kind = telemetry.EventReschedule
	ev.Query = r.d.Spec.Name
	ev.Attrs["strategy"] = r.d.strat.Name()
	ev.Attrs["moved_tasks"] = moved
	ev.Attrs["replace_ms"] = elapsed.Seconds() * 1e3
	r.emit(ev)
	if r.logf != nil {
		r.logf("re-placement (%s): %d tasks on %d survivors, %d moved, decided in %v",
			r.d.strat.Name(), r.phys.NumTasks(), r.d.cluster.NumWorkers()-len(dead), moved, elapsed.Round(time.Microsecond))
	}
	return next, nil
}

// export publishes the controller's share of the run on the result's
// registry, beside the engine's job.* series.
func (r *replacer) export(res *engine.JobResult) {
	res.Metrics.Gauge("controller.placement_seconds").Set(r.d.PlacementTime.Seconds())
	res.Metrics.Gauge("controller.replacement_seconds").Set(r.elapsed.Seconds())
	res.Metrics.Counter("controller.tasks_moved").Inc(int64(r.moved))
}
