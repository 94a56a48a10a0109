package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/statebackend"
	"capsys/internal/telemetry"
)

// WorkerSpec declares one worker's slot count and resource capacities.
type WorkerSpec struct {
	ID     string
	Slots  int
	Cores  float64 // CPU-seconds per second
	IOBps  float64 // state bytes per second
	NetBps float64 // cross-worker bytes per second
}

// ClusterSpec declares the engine cluster.
type ClusterSpec struct {
	Workers []WorkerSpec
}

// JobOptions configures a run.
type JobOptions struct {
	// ChannelCapacity is the bounded inbox size per task (default 64);
	// smaller values propagate backpressure faster. Under the batched
	// transport it is also the credit budget per receiver — the bound on
	// records in flight toward a task.
	ChannelCapacity int
	// SourceRate caps each source operator's aggregate generation rate in
	// records/second (0 or missing = uncapped).
	SourceRate map[dataflow.OperatorID]float64
	// RecordsPerSource is the number of records each source *task*
	// generates before signaling end of stream (required, > 0).
	RecordsPerSource int64
	// PerRecordCPU charges this many CPU-seconds per processed record per
	// operator, on top of the operator's real compute, modeling the
	// profiled cost. Missing operators charge nothing extra.
	PerRecordCPU map[dataflow.OperatorID]float64
	// Stateful marks operators that need a state namespace.
	Stateful map[dataflow.OperatorID]bool
	// KeyGroups is the number of key-groups keyed records and keyed state
	// are partitioned into (Flink's maxParallelism). It is fixed for the
	// life of the job, bounds every keyed operator's parallelism, and is
	// what makes live rescaling exact: records route hash→group→task, state
	// snapshots split along group boundaries, and both use the same map.
	// Zero means DefaultKeyGroupsFor(plan).
	KeyGroups int

	// Transport selects the data-plane exchange discipline: TransportUnary
	// (one channel message per record, the reference semantics) or
	// TransportBatched (size/linger-bounded batches under credit-based flow
	// control). Empty means unary.
	Transport string
	// BatchSize is the batched transport's per-target flush threshold
	// (default DefaultBatchSize, clamped to ChannelCapacity so one batch
	// can always acquire its credits).
	BatchSize int
	// BatchLinger bounds how long a partial batch may wait for more records
	// before flushing (default DefaultBatchLinger; negative disables
	// time-based flushing). Barriers and EOF always flush regardless.
	BatchLinger time.Duration

	// DisableFusion turns off operator fusion. By default the engine fuses
	// same-worker linear chains — operators connected 1:1 by Forward edges
	// with equal parallelism (dataflow.PipelinedSuccessor) whose paired
	// tasks the plan co-locates — into a single goroutine making direct
	// per-record calls, the way Flink chains operators (§6.1). Fusion is
	// semantically invisible: outcomes, checkpoints, watermarks and fault
	// handling match the unfused engine; only goroutine count, exchange
	// hops and timing telemetry change. Set DisableFusion for the unfused
	// reference behavior (CLI flag -fuse=off).
	DisableFusion bool

	// SnapshotInterval enables barrier-aligned checkpoints: each source
	// task injects a checkpoint barrier every SnapshotInterval records, and
	// every task snapshots its state + progress counters when the barrier
	// passes (Chandy-Lamport alignment, as in Flink). 0 disables snapshots.
	SnapshotInterval int64
	// FaultPlan schedules deterministic failures (see FaultPlan).
	FaultPlan FaultPlan
	// OnFailure enables automatic recovery from worker kills: when a worker
	// dies, the run aborts, OnFailure is called with the failure event, and
	// the plan it returns (over surviving workers) is re-deployed with every
	// task restored from the last globally complete snapshot epoch. For
	// non-kill faults a nil plan keeps the current placement. If OnFailure
	// is nil, a worker kill fails the run with ErrNoReplacementHook, as on a
	// coordinator; a task crash still restarts in place.
	OnFailure func(FailureEvent) (*dataflow.Plan, error)

	// Rescales schedules live parallelism changes (see RescalePlan); the
	// same requests can be made while running via Job.Rescale. Requires
	// SnapshotInterval > 0.
	Rescales []RescalePlan
	// OnRescale, when set, re-places tasks after a rescale: it receives the
	// applied change, the previous plan and the rescaled physical graph, and
	// returns a complete plan for the new task set (the controller wires a
	// warm-started CAPS search here). nil keeps surviving tasks in place and
	// packs new tasks onto free slots.
	OnRescale func(RescaleEvent, *dataflow.Plan, *dataflow.PhysicalGraph) (*dataflow.Plan, error)

	// Telemetry, when set, receives live instrumentation: per-operator
	// end-to-end latency histograms ("latency.<op>"), per-worker resource
	// saturation gauges, exchange instrumentation (batch-size histogram,
	// per-task queue-depth gauges), and structured trace events (checkpoint
	// barriers, faults, recoveries). nil disables instrumentation at zero
	// cost.
	Telemetry *telemetry.Telemetry

	// Now, when set, replaces the wall clock used for statistics timestamps
	// (elapsed, busy/backpressure accounting, fault offsets, ingest stamps).
	// It must be safe for concurrent use — clock.Fixed and the system clock
	// are; clock.Step is not. Rate pacing, batch linger and stall sleeps
	// always follow the real clock. nil means the system clock.
	Now clock.Clock
}

// TaskStats is one task's runtime telemetry: what JobResult.Tasks exposes
// and what worker reports carry across the control plane as JSON (so every
// field stays an exported plain value).
type TaskStats struct {
	Worker          int
	RecordsIn       int64
	RecordsOut      int64
	BytesOut        int64
	BusyTime        time.Duration
	BackpressureT   time.Duration
	UsefulFraction  float64
	ObservedInRate  float64
	ObservedOutRate float64
	// Sink and Source mark tasks of operators without downstream or
	// upstream edges.
	Sink, Source bool
	// Stateful marks a task with a keyed-state namespace; StateBytes and
	// StateKeys are that namespace's stored bytes and keys when the task's
	// attempt reported.
	Stateful              bool
	StateBytes, StateKeys int64
	// CPUDraw, IODraw and NetDraw are the tokens the task struck on its
	// worker's CPU, IO and network meters during the reporting attempt
	// (unlike the record counters, they do not resume from a snapshot):
	// core-seconds, state-access bytes and cross-worker bytes. A fused
	// member's state I/O is struck on its chain head's IO shard, so the head
	// carries the chain's IODraw and the member reports none.
	CPUDraw, IODraw, NetDraw float64
}

// JobResult is the outcome of one engine run.
type JobResult struct {
	Elapsed time.Duration
	Tasks   map[dataflow.TaskID]TaskStats
	// SinkRecords counts records absorbed by sink operators.
	SinkRecords int64
	// SourceRecords counts records produced by sources.
	SourceRecords int64
	// Metrics exports the run's telemetry as a named registry (the form
	// the CAPSys metrics collector scrapes), assembled from the final
	// attempt's worker reports alone (see assembleResult): per task,
	// "<op>[<idx>].records_in", ".records_out", ".bytes_out",
	// ".busy_seconds", ".backpressure_seconds" and ".useful_fraction", and
	// for stateful tasks ".state_bytes" and ".state_keys" with the
	// "state.total_bytes", "state.total_keys" and "state.namespaces" totals;
	// job-level "job.*" series; the exchange.* family (declared in
	// buildAttempt) and, under the network transport, the net.* family
	// (declared in newNetAttempt); "worker.<id>.{cpu,io,net}_saturation";
	// and, when the attempt fused, "engine.fuse.{chains,tasks,records}".
	Metrics *metrics.Registry

	// Failed is always false: a fault the run cannot recover fails Run with
	// an error instead. It is kept for the benchmark harness (bench/), which
	// reads it.
	Failed bool
	// Faults lists every injected fault that fired.
	Faults []FaultRecord
	// Recoveries counts checkpoint restarts performed.
	Recoveries int
	// Downtime is the wall-clock time lost to failures: abort to restart,
	// summed over recoveries.
	Downtime time.Duration
	// RecordsReprocessed counts records whose processing was rolled back by
	// restores and had to be replayed.
	RecordsReprocessed int64
	// LostRecords is always 0: a recovery replays from the last complete
	// checkpoint, and a fault the run cannot recover fails it. It is kept
	// for the benchmark harness (bench/), which reads it, and for the
	// job.lost_records series and the lost columns caplive and the RECOVERY
	// study print.
	LostRecords int64
	// SnapshotsTaken counts distinct (task, epoch) snapshots recorded.
	SnapshotsTaken int64
	// RestoredEpoch is the checkpoint epoch of the most recent restore
	// (0 if the job never restarted).
	RestoredEpoch int64
	// Rescales counts live parallelism changes applied.
	Rescales int
	// RescaleDowntime is the wall-clock time the pipeline was down across
	// rescales: drain-abort to restart, per rescale.
	RescaleDowntime time.Duration
	// RescaleMovedBytes counts stored state bytes whose owning task changed
	// across all rescales.
	RescaleMovedBytes int64
}

// OperatorInRate aggregates the observed input rate of one operator.
func (r *JobResult) OperatorInRate(op dataflow.OperatorID) float64 {
	total := 0.0
	for id, st := range r.Tasks {
		if id.Op == op {
			total += st.ObservedInRate
		}
	}
	return total
}

// Job is a deployable engine job. graph and plan are the job as NewJob was
// given it and never change; a rescaled attempt's graph is derived from the
// supervisor's task set (localExecutor.RunAttempt).
type Job struct {
	graph     *dataflow.LogicalGraph
	plan      *dataflow.Plan
	spec      ClusterSpec
	opts      JobOptions
	factories map[dataflow.OperatorID]Factory
	transport transport
	clk       clock.Clock
	// sup runs the job's lifecycle (see supervisor.go) and owns the task
	// set, the checkpoint store and the pending-rescale queue.
	sup *Supervisor
}

// NewJob wires a physical graph onto engine workers according to plan.
// factories provides, per operator, a Factory returning either an Operator
// or a Source instance for each task.
func NewJob(g *dataflow.LogicalGraph, plan *dataflow.Plan, spec ClusterSpec, factories map[dataflow.OperatorID]Factory, opts JobOptions) (*Job, error) {
	if opts.RecordsPerSource <= 0 {
		return nil, fmt.Errorf("engine: RecordsPerSource must be positive")
	}
	if opts.ChannelCapacity <= 0 {
		opts.ChannelCapacity = 64
	}
	if opts.SnapshotInterval < 0 {
		return nil, fmt.Errorf("engine: SnapshotInterval must be non-negative")
	}
	if opts.Transport == "" {
		opts.Transport = TransportUnary
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.BatchSize > opts.ChannelCapacity {
		opts.BatchSize = opts.ChannelCapacity
	}
	if opts.BatchLinger == 0 {
		opts.BatchLinger = DefaultBatchLinger
	}
	if opts.KeyGroups < 0 {
		return nil, fmt.Errorf("engine: KeyGroups must be non-negative")
	}
	if opts.KeyGroups == 0 {
		opts.KeyGroups = DefaultKeyGroupsFor(plan)
	}
	for _, op := range g.Operators() {
		if op.Parallelism > opts.KeyGroups {
			return nil, fmt.Errorf("engine: operator %q parallelism %d exceeds %d key-groups", op.ID, op.Parallelism, opts.KeyGroups)
		}
	}
	transport, err := transportFor(opts)
	if err != nil {
		return nil, err
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, err
	}
	tasks := phys.Tasks()
	taskSet := make(map[dataflow.TaskID]bool, len(tasks))
	for _, t := range tasks {
		taskSet[t] = true
	}
	for _, op := range g.Operators() {
		if _, ok := factories[op.ID]; !ok {
			return nil, fmt.Errorf("engine: no factory for operator %q", op.ID)
		}
	}
	// Fault plans must reference real workers/tasks, and worker kills are
	// epoch-aligned so they need a snapshot clock to trigger against.
	for _, k := range opts.FaultPlan.KillWorkers {
		if k.Worker < 0 || k.Worker >= len(spec.Workers) {
			return nil, fmt.Errorf("engine: fault plan kills invalid worker %d", k.Worker)
		}
		if opts.SnapshotInterval <= 0 {
			return nil, fmt.Errorf("engine: worker kills are epoch-aligned; set SnapshotInterval > 0")
		}
		if k.AtEpoch <= 0 {
			return nil, fmt.Errorf("engine: kill epoch must be positive")
		}
	}
	for _, c := range opts.FaultPlan.CrashTasks {
		if !taskSet[c.Task] {
			return nil, fmt.Errorf("engine: fault plan crashes unknown task %v", c.Task)
		}
	}
	for _, s := range opts.FaultPlan.StallTasks {
		if !taskSet[s.Task] {
			return nil, fmt.Errorf("engine: fault plan stalls unknown task %v", s.Task)
		}
	}
	j := &Job{
		graph:     g,
		plan:      plan,
		spec:      spec,
		opts:      opts,
		factories: factories,
		transport: transport,
		clk:       opts.Now.OrSystem(),
	}
	cfg := SupervisorConfig{
		Tasks:            tasks,
		Plan:             plan,
		Workers:          spec.Workers,
		KeyGroups:        opts.KeyGroups,
		SnapshotInterval: opts.SnapshotInterval,
		Transport:        opts.Transport,
		OnFault:          opts.OnFailure,
		Emit:             opts.Telemetry.Tracer().Emit,
		Now:              opts.Now,
	}
	if opts.OnRescale != nil {
		// The hook's caller-facing shape takes the rescaled physical graph.
		cfg.OnRescale = func(ev RescaleEvent, prev *dataflow.Plan) (*dataflow.Plan, error) {
			_, phys, err := j.topology(ev.Parallelism)
			if err != nil {
				return nil, err
			}
			return opts.OnRescale(ev, prev, phys)
		}
	}
	if j.sup, err = NewSupervisor(cfg); err != nil {
		return nil, err
	}
	for _, p := range opts.Rescales {
		if err := j.schedule(p); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Transport reports the resolved data-plane transport the job runs under.
func (j *Job) Transport() string { return j.opts.Transport }

// Run executes the job until all sources are exhausted and the pipeline has
// drained, or ctx is canceled (sources stop early; the pipeline still
// drains). Faults restart the job from the last complete checkpoint epoch,
// re-placing tasks via OnFailure when a worker dies (without it a death is
// ErrNoReplacementHook); due rescales drain, repartition and resume it (see
// Supervisor).
func (j *Job) Run(ctx context.Context) (*JobResult, error) {
	x := &localExecutor{j: j, faults: newFaultState(j.opts.FaultPlan, j.clk(), j.clk, j.opts.Telemetry.Tracer())}
	return j.sup.Run(ctx, x)
}

// localExecutor is the in-process AttemptExecutor: an attempt is a set of
// goroutines over in-memory (or loopback) exchanges, checkpointing through
// localCoord.
type localExecutor struct {
	j      *Job
	faults *faultState
}

// localCoord is an in-process attempt's CoordClient: the two supervisor
// calls a coordinator makes for a worker's frames, with the drain answer
// draining this attempt.
type localCoord struct{ a *attempt }

func (c localCoord) EpochStarted(epoch int64) { c.a.j.sup.EpochStarted(c.a.no, epoch) }

func (c localCoord) TaskSnapshot(s *TaskSnapshot) error {
	if done, drain := c.a.j.sup.RecordSnapshot(c.a.no, s); drain {
		c.a.drain(done)
	}
	return nil
}

// RunAttempt builds, restores and runs one in-process attempt on the job's
// graph at the parallelism of the attempt's task set.
func (x *localExecutor) RunAttempt(ctx context.Context, at AttemptSpec) (AttemptEnd, error) {
	att, err := x.j.buildAttempt(at.No, parallelism(at.Tasks), at.Plan, x.faults, x.j.sup.EpochSnapshots(at.RestoreEpoch), nil)
	if err != nil {
		return AttemptEnd{}, err
	}
	at.Up()
	err = att.run(ctx)
	att.close()
	if err != nil {
		return AttemptEnd{}, err
	}
	att.mu.Lock()
	end := AttemptEnd{Fault: att.failEv, DrainEpoch: att.rescaleEpoch, At: att.rescaleAt}
	if end.Fault != nil {
		end.At = att.failAt
	}
	att.mu.Unlock()
	end.Faults = x.faults.takeNew()
	if ev := end.Fault; ev != nil {
		end.Cause = fmt.Sprintf("%v fired on task %v", ev.Kind, ev.Task)
		if ev.Kind == FaultKillWorker {
			end.NewDead = []int{ev.Worker}
		}
	}
	end.Reports = []*WorkerReport{att.report()}
	return end, nil
}

// attempt is one deployment of the job: fresh workers, stores, channels and
// task runtimes, optionally restored from a checkpoint epoch.
type attempt struct {
	j  *Job
	no int
	// graph is the logical graph this attempt runs (rescaled from the job's);
	// plan places its tasks.
	graph   *dataflow.LogicalGraph
	plan    *dataflow.Plan
	coord   CoordClient // nil drops checkpoint traffic
	faults  *faultState
	clk     clock.Clock
	tasks   []*taskRuntime
	workers []*WorkerResources
	// net holds the TCP data-plane state under TransportNetwork (nil for the
	// in-memory transports); dist marks a worker-local attempt of a
	// multi-process run (nil when every task runs in this process).
	net  *netAttempt
	dist *WorkerNetConfig

	// reg owns this attempt's exchange.* and net.* cells: a scope of the
	// hub's registry, so every update also lands on the hub's cell, or a
	// private registry without a hub. It counts this attempt alone, however
	// many attempts share the hub. The four exchange cells: batches flushed,
	// records they carried, and credit-gate stalls (count and time waited).
	reg                                 *metrics.Registry
	batches, batchRecords, creditStalls *metrics.Counter
	creditStallT                        *metrics.TimeAccumulator

	// fusedChains/fusedTasks count the fusion this attempt performed:
	// chains driven by one goroutine, and member tasks that got none.
	fusedChains int64
	fusedTasks  int64

	// gauges is the attempt's set of callback gauges (see buildAttempt).
	gauges []telemetry.GaugeFunc

	abort     chan struct{}
	abortOnce sync.Once
	// abortFlag mirrors the abort channel as a cheap per-record check for
	// fused chains, which touch no channels and would otherwise only notice
	// an abort at their next external send.
	abortFlag atomic.Bool
	mu        sync.Mutex
	failEv    *FailureEvent // guarded by mu
	failAt    time.Time     // guarded by mu
	// rescaleEpoch/rescaleAt mark an abort that drained for a live rescale
	// rather than a fault (guarded by mu; failEv wins a race).
	rescaleEpoch int64
	rescaleAt    time.Time
	// startedEpoch is the newest epoch a source of this attempt has injected;
	// sources inject epochs in order, so an epoch above it is a first
	// injection.
	startedEpoch int64 // guarded by mu
}

// localTo reports whether worker w's tasks run in this process: always in
// an in-process attempt, only the deploy-local worker in a distributed one.
func localTo(dist *WorkerNetConfig, w int) bool {
	return dist == nil || w == dist.Local
}

// topology is the job's graph at the given per-operator parallelism (nil =
// as NewJob was given it) and its physical expansion.
func (j *Job) topology(par map[dataflow.OperatorID]int) (*dataflow.LogicalGraph, *dataflow.PhysicalGraph, error) {
	g, err := j.graph.Rescale(par)
	if err != nil {
		return nil, nil, err
	}
	phys, err := dataflow.Expand(g)
	return g, phys, err
}

// buildAttempt builds attempt no of the job's graph at parallelism par (see
// topology) placed by plan, its tasks restored from the restore set (one
// snapshot per task, all at one epoch; empty = start fresh). A worker-local
// attempt (dist set) checkpoints through dist.Coord, an in-process one
// through localCoord.
func (j *Job) buildAttempt(no int, par map[dataflow.OperatorID]int, plan *dataflow.Plan, faults *faultState, restore []*TaskSnapshot, dist *WorkerNetConfig) (*attempt, error) {
	g, phys, err := j.topology(par)
	if err != nil {
		return nil, err
	}
	// fuseNext maps each operator to the operator fused onto it when the plan
	// co-locates their paired tasks (empty when fusion is disabled).
	fuseNext := fusionMap(g, j.opts.DisableFusion)
	a := &attempt{j: j, no: no, graph: g, plan: plan, faults: faults, clk: j.clk, abort: make(chan struct{}), dist: dist}
	a.coord = localCoord{a}
	if dist != nil {
		a.coord = dist.Coord
	}
	snaps := make(map[dataflow.TaskID]*TaskSnapshot, len(restore))
	for _, s := range restore {
		snaps[s.Task] = s
	}
	a.reg = j.opts.Telemetry.Registry().Scope()
	a.batches = a.reg.Counter("exchange.batches")
	a.batchRecords = a.reg.Counter("exchange.batch_records")
	a.creditStalls = a.reg.Counter("exchange.credit_stalls")
	a.creditStallT = a.reg.Time("exchange.credit_stall_seconds")
	workers := make([]*WorkerResources, len(j.spec.Workers))
	stores := make([]*statebackend.Store, len(j.spec.Workers))
	for i, ws := range j.spec.Workers {
		workers[i] = NewWorkerResources(ws.ID, ws.Cores, ws.IOBps, ws.NetBps)
		// Every namespace charges its task goroutine's IO-meter shard
		// (SetAccount below), so the store itself accounts nothing.
		// Snapshots split along the same group boundaries records route on.
		stores[i] = statebackend.NewStore(nil, statebackend.Options{NumKeyGroups: j.opts.KeyGroups})
	}
	a.workers = workers
	// Callback saturation gauges read the live meters at scrape time; a
	// restarted attempt re-registers the same (family, labels) series, so the
	// exporter always reflects the current attempt's meters.
	if j.opts.Telemetry != nil {
		for i, res := range workers {
			if !localTo(dist, i) {
				continue
			}
			for resource, m := range map[string]*Meter{"cpu": res.CPU, "io": res.IO, "net": res.Net} {
				a.gauge("worker_saturation", map[string]string{"worker": j.spec.Workers[i].ID, "resource": resource}, m.Utilization)
			}
		}
	}

	// Build runtimes and inboxes.
	byID := make(map[dataflow.TaskID]*taskRuntime, phys.NumTasks())
	var tasks []*taskRuntime
	for _, t := range phys.Tasks() {
		w, ok := plan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("engine: task %v unassigned", t)
		}
		if !localTo(dist, w) {
			// A distributed attempt instantiates only this worker's tasks;
			// remote tasks exist as wire endpoints wired below.
			continue
		}
		op := g.Operator(t.Op)
		rt := &taskRuntime{
			id:      t,
			worker:  w,
			res:     workers[w],
			att:     a,
			inbox:   make(chan message, j.opts.ChannelCapacity),
			gate:    j.transport.newGate(j.opts.ChannelCapacity),
			numIn:   len(phys.In(t)),
			cpuCost: j.opts.PerRecordCPU[t.Op],
			isSink:  len(g.Downstream(t.Op)) == 0,
		}
		if len(phys.In(t)) > 0 {
			// Non-source tasks sample end-to-end latency; parallel tasks of
			// one operator share the operator's histogram.
			rt.lat = j.opts.Telemetry.Histogram("latency." + string(t.Op))
		}
		if j.opts.Telemetry != nil {
			if j.opts.Transport == TransportBatched || j.opts.Transport == TransportNetwork {
				rt.batchSizeH = j.opts.Telemetry.Histogram("exchange.batch_size")
			}
			// Live queue-depth gauge: len on a channel is safe from the
			// exporter goroutine.
			inbox := rt.inbox
			a.gauge("exchange_queue_depth",
				map[string]string{"task": t.String()},
				func() float64 { return float64(len(inbox)) })
		}
		// Each task accounts resource draw on private meter shards: the hot
		// path strikes a single-writer shard and pays the bucket in coalesced
		// draws, so co-located tasks stop contending on the meter mutex while
		// Consumed()/Utilization() still see every token.
		rt.cpuShard = workers[w].CPU.NewShard()
		rt.netShard = workers[w].Net.NewShard()
		rt.ioShard = workers[w].IO.NewShard()
		rt.chanWM = make([]int64, rt.numIn)
		for i := range rt.chanWM {
			rt.chanWM[i] = minInt64
		}
		rt.watermark = minInt64
		rt.chanEOF = make([]bool, rt.numIn)
		rt.chanSeen = make([]bool, rt.numIn)
		rt.killEpoch, rt.killIdx = faults.killEpochFor(w)
		tctx := &TaskContext{
			Op:          string(t.Op),
			Index:       t.Index,
			Parallelism: op.Parallelism,
			Watermark:   func() int64 { return rt.watermark },
		}
		snap := snaps[t]
		if dist != nil && dist.RestoreEpoch > 0 && (snap == nil || snap.Epoch != dist.RestoreEpoch) {
			return nil, fmt.Errorf("engine: restoring epoch %d without a snapshot of %v at that epoch", dist.RestoreEpoch, t)
		}
		if j.opts.Stateful[t.Op] {
			tctx.State = stores[w].Namespace(t.String())
			// State I/O is only struck on the IO shard of the goroutine that
			// runs the task — a fused member's is its chain head's
			// (shareChain) — and the task loop pays the shard into the bucket
			// once per batch, like CPU.
			tctx.State.SetAccount(func(r, w int) { rt.ioShard.Strike(float64(r + w)) })
			if snap != nil {
				if err := tctx.State.Restore(snap.NSState); err != nil {
					return nil, fmt.Errorf("engine: restore state of %v: %w", t, err)
				}
			}
			if j.opts.Telemetry != nil {
				// Live keyed-state gauges (rescale observability): sizes read
				// from the namespace at scrape time.
				ns := tctx.State
				a.gauge("state.bytes",
					map[string]string{"task": t.String()},
					func() float64 { return float64(ns.StoredBytes()) })
				a.gauge("state.keys",
					map[string]string{"task": t.String()},
					func() float64 { return float64(ns.Keys()) })
			}
		}
		rt.ctx = tctx
		inst, err := mustFactory(j, t, tctx)
		if err != nil {
			return nil, err
		}
		rt.op = inst
		// State I/O struck while building (a restore) is paid at deployment.
		rt.ioShard.Draw()
		if snap != nil {
			rt.recordsIn = snap.RecordsIn
			rt.recordsOut = snap.RecordsOut
			rt.bytesOut = snap.BytesOut
			rt.srcOffset = snap.SrcOffset
			rt.epoch = snap.Epoch
			rt.restore = snap
			if s, ok := inst.(Snapshotter); ok && len(snap.OpState) > 0 {
				if err := s.RestoreState(snap.OpState); err != nil {
					return nil, fmt.Errorf("engine: restore operator state of %v: %w", t, err)
				}
			}
		}
		byID[t] = rt
		tasks = append(tasks, rt)
	}
	// Wire downstream edges: for every logical edge, each upstream task
	// gets one downstreamEdge covering all downstream tasks. Each
	// (sender, receiver) channel gets a receiver-side index so receivers
	// can track per-channel watermarks. The loop iterates every task —
	// including remote ones in a distributed attempt — so channel indices
	// are identical in every process of a cluster; cross-worker channels
	// are collected for the network transport's grantor/mirror setup.
	nextCh := make(map[dataflow.TaskID]int, phys.NumTasks())
	var cross []crossChan
	for _, e := range g.Edges() {
		downTasks := phys.TasksOf(e.To)
		inIdx := upstreamIndex(g, e.To, e.From)
		for _, ut := range phys.TasksOf(e.From) {
			uw, ok := plan.Worker(ut)
			if !ok {
				return nil, fmt.Errorf("engine: task %v unassigned", ut)
			}
			targets := downTasks
			if e.Mode == dataflow.Forward {
				targets = []dataflow.TaskID{downTasks[ut.Index]}
			}
			var edge *downstreamEdge
			if byID[ut] != nil {
				edge = &downstreamEdge{inIdx: inIdx, groups: j.opts.KeyGroups}
			}
			for _, dt := range targets {
				dw, ok := plan.Worker(dt)
				if !ok {
					return nil, fmt.Errorf("engine: task %v unassigned", dt)
				}
				ch := nextCh[dt]
				nextCh[dt]++
				if uw != dw {
					cross = append(cross, crossChan{from: uw, to: dw, task: dt})
				}
				if edge == nil {
					continue
				}
				var inbox chan message
				var gate *creditGate
				if drt := byID[dt]; drt != nil {
					inbox, gate = drt.inbox, drt.gate
				}
				edge.inboxes = append(edge.inboxes, inbox)
				edge.workers = append(edge.workers, dw)
				edge.gates = append(edge.gates, gate)
				edge.chans = append(edge.chans, ch)
				edge.tasks = append(edge.tasks, dt)
			}
			if edge != nil {
				// Fuse the edge when the planner kept both ends of a
				// fusion-eligible Forward edge on one worker: the downstream
				// task will run inline on this goroutine instead of behind an
				// inbox. Both conditions are pure functions of (graph, plan),
				// so every process of a distributed attempt fuses identically.
				if fuseNext[e.From] == e.To && len(edge.workers) == 1 && edge.workers[0] == uw {
					if drt := byID[edge.tasks[0]]; drt != nil {
						edge.fuseTo = drt
						drt.fusedIn = true
						byID[ut].fused = append(byID[ut].fused, drt)
					}
				}
				byID[ut].outs = append(byID[ut].outs, edge)
			}
		}
	}
	// The network transport's wire state must exist before senders are
	// built: senders capture their node and per-target mirror gates.
	if j.opts.Transport == TransportNetwork {
		net, err := newNetAttempt(a, byID, cross)
		if err != nil {
			return nil, err
		}
		a.net = net
	} else if dist != nil {
		return nil, fmt.Errorf("engine: distributed attempts require the %s transport, have %s", TransportNetwork, j.opts.Transport)
	}
	// One cached linger clock and one IO shard per task goroutine (a fused
	// chain is one).
	lingers := j.opts.Transport != TransportUnary && j.opts.BatchLinger >= 0
	for _, rt := range tasks {
		if !rt.fusedIn {
			var clock *time.Duration
			if lingers {
				clock = new(time.Duration)
			}
			rt.shareChain(clock, rt.ioShard)
			rt.readClock()
		}
	}
	// Restore round-robin routing positions so rebalance partitioning
	// resumes mid-cycle exactly where the checkpoint left it, then build
	// the transport's sender endpoints over the wired edges.
	for _, rt := range tasks {
		if rt.restore != nil {
			for i, e := range rt.outs {
				if i < len(rt.restore.RR) {
					e.rr = rt.restore.RR[i]
				}
			}
		}
		rt.senders = make([]edgeSender, len(rt.outs))
		for i, e := range rt.outs {
			if e.fuseTo != nil {
				fs, err := newFusedSender(a, rt, e)
				if err != nil {
					return nil, err
				}
				rt.senders[i] = fs
			} else {
				rt.senders[i] = j.transport.newSender(rt, e)
			}
		}
		rt.emitFn = rt.emit
	}
	for _, rt := range tasks {
		if rt.fusedIn {
			a.fusedTasks++
		} else if len(rt.fused) > 0 {
			a.fusedChains++
		}
	}
	a.tasks = tasks
	// The attempt's callback gauges replace, as one set, those the previous
	// attempt on the same workers registered — whichever Job built it, as a
	// worker process builds one per deploy — so a task, peer or meter this
	// attempt no longer has stops being exported, and the drained attempt's
	// namespaces, inboxes and wire state are not kept alive by callbacks. An
	// in-process attempt's set is the hub's one in-process set; the last
	// attempt's series stay readable after the run.
	owner := "engine"
	if dist != nil {
		owner += "/" + j.spec.Workers[dist.Local].ID
	}
	j.opts.Telemetry.ReplaceGaugeFuncs(owner, a.gauges)
	return a, nil
}

// gauge adds a callback gauge to the attempt's set, which buildAttempt
// registers on the hub once the attempt is built.
func (a *attempt) gauge(family string, labels map[string]string, fn func() float64) {
	a.gauges = append(a.gauges, telemetry.GaugeFunc{Family: family, Labels: labels, Fn: fn})
}

// run launches all task goroutines and waits for the attempt to finish —
// either a clean drain or an abort; once it returns no task goroutine
// remains, so the outcome fields (failEv, rescaleEpoch, ...) are stable.
func (a *attempt) run(ctx context.Context) error {
	if a.net != nil {
		// Peer addresses are complete by now; unblock the credit grantors.
		a.net.start()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(a.tasks))
	for _, rt := range a.tasks {
		if rt.fusedIn {
			// A fused member runs inline on its chain head's goroutine; the
			// head reports the member's failure below.
			continue
		}
		wg.Add(1)
		go func(rt *taskRuntime) {
			defer wg.Done()
			var err error
			if src, ok := rt.op.(Source); ok {
				err = a.runSource(ctx, rt, src)
			} else {
				err = a.runOperator(rt)
			}
			if err != nil {
				// errCh is buffered to len(a.tasks) and every task sends at
				// most once, so this send can never block.
				errCh <- fmt.Errorf("engine: task %v: %w", rt.id, err)
			}
			if !rt.aborted {
				// Unfused members report their own failure from their own
				// goroutine unless the attempt is aborting; the head does the
				// same on their behalf, under the same abort guard.
				if id, ferr := rt.fusedFailure(); ferr != nil {
					errCh <- fmt.Errorf("engine: task %v: %w", id, ferr)
				}
			}
		}(rt)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	if a.net != nil {
		if !a.abortFlag.Load() {
			// The tasks finished, but their last frames may still be queued:
			// see them onto the wire before close tears the sockets down.
			a.net.drain()
		}
		// A data-plane send failure that nobody recovered self-aborted the
		// attempt (see failSend); surface it as a run error so the attempt
		// cannot masquerade as a clean completion with dropped records.
		return a.net.fatalErr()
	}
	return nil
}

// close releases the attempt's wire resources (listeners, connections,
// grantor goroutines) once no task goroutine remains. In-memory attempts
// hold none and this is a no-op.
func (a *attempt) close() {
	if a.net != nil {
		a.net.shutdown()
	}
}

// trigger fires a kill or a crash on rt: it records the fault, aborts the
// attempt and marks rt aborted, so the caller's task exits. What follows —
// re-place and restore, restart in place, or fail the run — is the
// supervisor's.
func (a *attempt) trigger(kind FaultKind, rt *taskRuntime, epoch, records int64, killIdx int) {
	rec := FaultRecord{Kind: kind, Worker: -1, Task: rt.id, Epoch: epoch, Records: records}
	if kind == FaultKillWorker {
		rec.Worker = rt.worker
		a.faults.noteKill(killIdx, rec)
	} else {
		a.faults.note(rec)
	}
	a.mu.Lock()
	if a.failEv == nil {
		ev := &FailureEvent{Kind: kind, Worker: -1, Task: rt.id, Epoch: epoch, Attempt: a.no}
		if kind == FaultKillWorker {
			ev.Worker = rt.worker
			ev.WorkerID = a.j.spec.Workers[rt.worker].ID
		}
		a.failEv = ev
		a.failAt = a.clk()
	}
	a.mu.Unlock()
	a.doAbort()
	rt.aborted = true
}

// doAbort tears the attempt down for recovery: the channel unblocks selects,
// the flag lets channel-free fused chains notice per record.
func (a *attempt) doAbort() {
	a.abortFlag.Store(true)
	a.abortOnce.Do(func() { close(a.abort) })
}

// snapshotTask records one task's checkpoint contribution for an epoch.
func (a *attempt) snapshotTask(rt *taskRuntime, epoch, srcOffset int64) error {
	snap := &TaskSnapshot{
		Task:       rt.id,
		Epoch:      epoch,
		RecordsIn:  rt.recordsIn,
		RecordsOut: rt.recordsOut,
		BytesOut:   rt.bytesOut,
		SrcOffset:  srcOffset,
	}
	if len(rt.outs) > 0 {
		snap.RR = make([]int, len(rt.outs))
		for i, e := range rt.outs {
			snap.RR[i] = e.rr
		}
	}
	if rt.ctx.State != nil {
		b, err := rt.ctx.State.Snapshot()
		if err != nil {
			return err
		}
		snap.NSState = b
	}
	if s, ok := rt.op.(Snapshotter); ok {
		b, err := s.SnapshotState()
		if err != nil {
			return err
		}
		snap.OpState = b
	}
	if a.coord != nil {
		if err := a.coord.TaskSnapshot(snap); err != nil {
			return fmt.Errorf("checkpoint epoch %d: %w", epoch, err)
		}
	}
	return nil
}

// epochStarted reports a source's barrier injection to the coordinator if
// it is the epoch's first in this attempt.
func (a *attempt) epochStarted(epoch int64) {
	a.mu.Lock()
	first := epoch > a.startedEpoch
	if first {
		a.startedEpoch = epoch
	}
	a.mu.Unlock()
	if first && a.coord != nil {
		a.coord.EpochStarted(epoch)
	}
}

func mustFactory(j *Job, t dataflow.TaskID, tctx *TaskContext) (any, error) {
	inst, err := j.factories[t.Op](tctx)
	if err != nil {
		return nil, fmt.Errorf("engine: factory for %v: %w", t, err)
	}
	switch v := inst.(type) {
	case Source:
		if err := v.Open(tctx); err != nil {
			return nil, err
		}
	case Operator:
		if err := v.Open(tctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: factory for %q returned %T, want Operator or Source", t.Op, inst)
	}
	return inst, nil
}

func upstreamIndex(g *dataflow.LogicalGraph, op, up dataflow.OperatorID) int {
	for i, u := range g.Upstream(op) {
		if u == up {
			return i
		}
	}
	return 0
}
