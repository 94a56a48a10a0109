package controller

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the control plane of the distributed runtime: a Coordinator
// process deploys one engine attempt per worker process and supervises the
// run, and JoinCluster is the worker-side loop. Control traffic uses the
// engine's length-prefixed frame codec over one TCP connection per worker,
// every body JSON (engine.EncodePayload) but SNAPSHOT's, which has its own
// layout (engine.WriteSnapshotFrame) in both directions; the data plane
// (records, barriers, credits) flows worker-to-worker over the engine's
// network transport and never touches the coordinator.
//
// Per attempt the protocol is two-phase:
//
//	coordinator -> worker  SNAPSHOT ...  {restore state, one frame per task}
//	coordinator -> worker  DEPLOY  {spec: query, plan, restore epoch}
//	worker -> coordinator  READY   {bound data-plane address}
//	coordinator -> worker  START   {all peers' data addresses}
//	worker -> coordinator  EPOCH_START | SNAPSHOT | HEARTBEAT | PEERDOWN ...
//	worker -> coordinator  DONE    {final report}
//
// Checkpoint snapshots stream to the coordinator as they are taken, so the
// engine.Supervisor it runs plays the role of durable remote checkpoint
// storage: state survives any worker's death. The Coordinator is the
// supervisor's remote AttemptExecutor — it deploys an attempt, pumps worker
// events, detects failures (a broken control connection, missed heartbeats,
// a PEERDOWN report), aborts the survivors and reports how the attempt
// ended; what happens next (restore epoch, re-placement, rescale) is the
// supervisor's lifecycle, shared with the in-process engine.

// TaskAssignment is one task-to-worker placement, the flat form a plan takes
// inside a DeploySpec.
type TaskAssignment struct {
	Task   dataflow.TaskID
	Worker int
}

// AssignmentsOf flattens a plan into assignments (deterministic order).
func AssignmentsOf(phys *dataflow.PhysicalGraph, plan *dataflow.Plan) ([]TaskAssignment, error) {
	return assignmentsOf(phys.Tasks(), plan)
}

func assignmentsOf(tasks []dataflow.TaskID, plan *dataflow.Plan) ([]TaskAssignment, error) {
	out := make([]TaskAssignment, 0, len(tasks))
	for _, t := range tasks {
		w, ok := plan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("controller: task %v unassigned", t)
		}
		out = append(out, TaskAssignment{Task: t, Worker: w})
	}
	return out, nil
}

// DeploySpec is everything a worker process needs to build its share of a
// job: the query identity and options (so every process derives the same
// deterministic graph, factories and generators), the full cluster spec and
// plan (so the cross-worker channel census agrees across processes), and
// the attempt-specific fields. Assign lists every task, so it also states the
// topology: a worker runs each operator at its task count there, before and
// after any rescale. The restore state itself travels ahead of the DEPLOY,
// one SNAPSHOT frame per task, so no frame carries more than one task's
// state.
type DeploySpec struct {
	Query            string
	Seed             int64
	RecordsPerSource int64
	SnapshotInterval int64
	ChannelCapacity  int
	BatchSize        int
	BatchLinger      time.Duration
	DisableFusion    bool
	CPUCostScale     float64
	Workers          []engine.WorkerSpec
	Assign           []TaskAssignment
	// KeyGroups is the job's key-group count, pinned by the coordinator so
	// every worker (and every attempt, across rescales) routes keyed records
	// and partitions keyed state identically. Zero lets each worker resolve
	// the engine default — only safe when no rescale will ever run.
	KeyGroups int
	// SourceRate is engine.JobOptions.SourceRate: each source operator's
	// aggregate records/second cap (missing = uncapped).
	SourceRate map[dataflow.OperatorID]float64

	// Attempt-specific, filled by the coordinator per deploy.
	Attempt      int
	Local        int
	RestoreEpoch int64
}

// Plan reconstructs the dataflow plan from the assignments.
func (d DeploySpec) Plan() *dataflow.Plan {
	p := dataflow.NewPlanSized(len(d.Assign))
	for _, a := range d.Assign {
		p.Assign(a.Task, a.Worker)
	}
	return p
}

// JobBuilder builds the worker-local engine job for one deploy. The job
// must use the network transport; its graph, factories and options must be
// a pure function of the spec — every worker (and every attempt) derives
// identical wiring from it.
type JobBuilder func(spec DeploySpec) (*engine.Job, error)

// Control-plane frame payloads.
type (
	wireJoin    struct{ Proto int }
	wireWelcome struct{ Worker int }
	wireReady   struct {
		Attempt int
		Addr    string
	}
	wireStart struct {
		Attempt int
		Peers   map[int]string
	}
	wireEpoch struct {
		Attempt int
		Epoch   int64
	}
	wirePeer struct {
		Attempt int
		Peer    int
	}
)

// distProtoVersion 2 grew the observability plane: HEARTBEAT frames carry
// an optional wireHeartbeat stats payload and workers may send TRACE
// frames. Version 3 added live rescaling: DEPLOY specs carry the pinned
// key-group count and per-operator parallelism overrides, which an older
// worker would silently ignore and build the wrong topology — so the
// version gates the join handshake. Version 4 dropped the wire-only mirror
// types: frames carry dataflow.TaskID and engine.TaskSnapshot directly, and
// worker reports carry per-task engine.TaskStats plus a named metric
// snapshot instead of one scalar field per counter. Version 5 took gob off
// the data plane (engine/wirecodec.go): a version-4 worker would join, deploy
// and then fail every data-plane handshake against its peers, so it is
// refused at the join instead. Version 6 changed what a shipped snapshot
// means (keyed operator state is the namespace image alone, join buffers are
// wire state records, sessions carry their bounds): a version-5 worker would
// restore one as if it were its own and silently lose windows. Version 7
// made the namespace image binary (statebackend/snapshot.go) and stopped the
// routing hash at a key's first NUL: a version-6 worker would fail every
// restore of a shipped snapshot, and route a NUL-holding key to another task
// than its peers do. Version 8 made the worker report the result's only
// source: per-task keyed-state sizes ride in engine.TaskStats, and fusion
// counts and worker saturation in its named metrics, each counted in cells
// the attempt owns. A version-7 worker's report would silently lack the
// state fields, and its counters would include its hub peers' work. Version
// 8 also sends HEARTBEAT stats as JSON (see wireHeartbeat), which a version-7
// coordinator would drop as undecodable. Version 9 reports each task's
// CPU/IO/Net meter draws in engine.TaskStats: a version-8 worker's report
// would decode with every draw zero, and the controller would profile its
// tasks as free. Version 10 keeps both sides of an incremental join in one
// list under the record key and ships SNAPSHOT in its own hand-laid layout
// instead of gob (engine.WriteSnapshotFrame): a version-9 worker would
// restore a version-10 join image as empty side buffers, and a version-9
// coordinator would drop every SNAPSHOT as undecodable. Version 11 encodes
// every other control body as JSON instead of gob, sends the restore set as
// SNAPSHOT frames ahead of the DEPLOY instead of inside it, and carries trace
// events in HEARTBEAT (there is no TRACE frame): a version-10 peer could
// decode none of it. Version 12 drops DEPLOY's per-operator parallelism
// overrides (Rescaled): the assignments are the topology. A version-11 worker
// would build a rescaled attempt on the query's original graph, and a
// version-11 coordinator's DEPLOY would not decode. Version 13 drops DONE's
// lost-record count and per-task dead flag (a kill either recovers or fails
// the run) and carries the source throttle in DEPLOY: a version-12 worker
// would run a throttled job unthrottled.
const distProtoVersion = 13

// errEncodePayload marks a send that failed locally while encoding the
// body — the data was unencodable or too large (MaxFramePayload), which
// says nothing about the peer's health. Callers deciding recovery must
// check for it: treating an encode failure as a connection error would
// "recover" against a perfectly healthy worker, and since the oversized
// data persists, every retry would kill another worker until the whole
// cluster is declared dead.
var errEncodePayload = errors.New("controller: encode frame payload")

// connWriter serializes frame writes on one control connection.
type connWriter struct {
	mu sync.Mutex
	c  net.Conn
}

func (w *connWriter) send(typ byte, body any) error {
	payload, err := engine.EncodePayload(body)
	if err != nil {
		return fmt.Errorf("%w: %v", errEncodePayload, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return engine.WriteFrame(w.c, engine.Frame{Type: typ, Payload: payload})
}

// sendSnapshot writes attempt's SNAPSHOT frame for s straight to the
// connection: the namespace image is sent from where the snapshot holds it,
// never copied into a frame buffer (nor one of snapshot size kept in the
// frame buffer pool). A snapshot over the frame cap is an error wrapping
// engine.ErrFrameTooLarge, and nothing is written.
func (w *connWriter) sendSnapshot(attempt int, s *engine.TaskSnapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return engine.WriteSnapshotFrame(w.c, attempt, s)
}

// ---------------------------------------------------------------------------
// coordinator

// CoordinatorOptions tunes supervision.
type CoordinatorOptions struct {
	// HeartbeatTimeout declares a worker dead when no frame (heartbeats
	// included) arrives for this long (default 5s). Connection errors are
	// detected immediately regardless.
	HeartbeatTimeout time.Duration
	// StopTimeout bounds how long recovery waits for an aborted worker's
	// STOPPED report before giving up on it (default 10s).
	StopTimeout time.Duration
	// Replan re-places after a fault, under engine.JobOptions.OnFailure's
	// contract: the plan it returns must avoid every worker in the event's
	// DeadWorkers, and for a fault in which nobody died a nil plan restarts
	// the attempt in place. Nil means worker loss is fatal.
	Replan func(engine.FailureEvent) (*dataflow.Plan, error)
	// Rescales schedules live parallelism changes: each plan triggers at the
	// first globally complete checkpoint epoch >= its AtEpoch. Every plan due
	// then shares one drain: the cluster drains to that epoch, each changed
	// operator's key-groups are repartitioned in the coordinator's snapshot
	// store, and every worker redeploys once on the rescaled topology. More
	// can be added at runtime via ScheduleRescale.
	Rescales []engine.RescalePlan
	// RescaleAssign re-places tasks once per drain (the previous plan still
	// names the old task set; the returned one must cover the rescaled one).
	// Nil keeps surviving tasks where they are and packs new tasks onto the
	// lowest-index live workers with free slots. Deployment.Coordinator sets
	// both hooks to its one re-placement closure.
	RescaleAssign func(ev engine.RescaleEvent, prev *dataflow.Plan) (*dataflow.Plan, error)
	// Logf, when set, receives progress lines ("checkpoint: epoch 3
	// complete", "worker 1 dead: ...").
	Logf func(format string, args ...any)
	// Telemetry, when set, turns the coordinator into the cluster's
	// aggregation point: the metric deltas on worker heartbeats merge into
	// its registry and their trace events into its tracer (clusterstats.go),
	// and ClusterHandler serves the combined view. Nil disables
	// aggregation; heartbeats degrade to pure liveness.
	Telemetry *telemetry.Telemetry
	// Now is the liveness clock (default the system clock). Tests inject
	// Step/Fixed clocks to drive heartbeat-timeout decisions
	// deterministically; tickers and deadlines stay on real time.
	Now clock.Clock
}

// Coordinator supervises one distributed job across worker processes.
type Coordinator struct {
	ln   net.Listener
	spec DeploySpec
	n    int
	opts CoordinatorOptions
	sup  *engine.Supervisor
	clk  clock.Clock
	agg  clusterAgg
	// replacer is the launching Deployment's re-placement closure (nil for a
	// coordinator built directly from a DeploySpec); Run hands it the run's
	// context and exports its tallies on the result.
	replacer *replacer

	// connMu orders WaitJoined's appends to conns against connSnapshot
	// reads from HTTP handlers; once the cluster is complete the slice is
	// append-free and the supervision loop reads it directly.
	connMu sync.Mutex
	conns  []*coordConn
	events chan coordEvent

	// curAttempt is the attempt currently deployed (0 before the first),
	// exported on /healthz.
	curAttempt atomic.Int64

	// Run's goroutine only: start is the origin of fault-record offsets;
	// dpRestarts counts attempts restarted for data-plane-only failures
	// (PEERDOWN reports whose accused peer was still control-plane live),
	// bounded by maxDataPlaneRestarts before escalating to a worker death.
	start      time.Time
	dpRestarts int
}

type coordConn struct {
	w         *connWriter
	c         net.Conn
	addr      string       // remote address, for the /workers roster
	lastSeen  atomic.Int64 // unix nanos of the last frame received
	alive     atomic.Bool  // false once the supervision loop declares it dead
	lastEpoch atomic.Int64 // last checkpoint epoch this worker started
}

// coordEvent is one worker's frame (or terminal read error) as seen by the
// supervision loop.
type coordEvent struct {
	worker int
	frame  engine.Frame
	err    error
}

// NewCoordinator binds the control listener for a cluster of `workers`
// worker processes — the first `workers` entries of spec.Workers; a plan
// naming any other worker is rejected with engine.ErrInvalidPlan, at
// construction and at every re-placement. spec's attempt-specific fields are
// ignored; the coordinator fills them per deploy.
func NewCoordinator(listen string, spec DeploySpec, workers int, opts CoordinatorOptions) (*Coordinator, error) {
	if workers <= 0 || workers > len(spec.Workers) {
		return nil, fmt.Errorf("controller: %d worker processes for a %d-worker spec", workers, len(spec.Workers))
	}
	if len(spec.Assign) == 0 {
		return nil, fmt.Errorf("controller: deploy spec has no task assignments")
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 5 * time.Second
	}
	if opts.StopTimeout <= 0 {
		opts.StopTimeout = 10 * time.Second
	}
	// Pin the key-group count so every worker, every attempt, and the
	// supervisor's own repartitioning agree on how keyed state and keyed
	// routing partition — before and after any rescale. A zero count
	// resolves as engine.NewJob resolves it, so a pre-rescale cluster is
	// byte-compatible with one that never pins.
	if spec.KeyGroups == 0 {
		spec.KeyGroups = engine.DefaultKeyGroupsFor(spec.Plan())
	}
	co := &Coordinator{
		spec:   spec,
		n:      workers,
		opts:   opts,
		clk:    opts.Now.OrSystem(),
		agg:    clusterAgg{tel: opts.Telemetry},
		events: make(chan coordEvent, 64),
	}
	cfg := engine.SupervisorConfig{
		Plan:             spec.Plan(),
		Workers:          spec.Workers[:workers],
		KeyGroups:        spec.KeyGroups,
		SnapshotInterval: spec.SnapshotInterval,
		Transport:        engine.TransportNetwork,
		OnFault:          opts.Replan,
		OnRescale:        opts.RescaleAssign,
		Emit:             co.trace,
		Logf:             opts.Logf,
		Now:              opts.Now,
	}
	for _, a := range spec.Assign {
		cfg.Tasks = append(cfg.Tasks, a.Task)
	}
	var err error
	if co.sup, err = engine.NewSupervisor(cfg); err != nil {
		return nil, err
	}
	for _, p := range opts.Rescales {
		if err := co.ScheduleRescale(p); err != nil {
			return nil, err
		}
	}
	if co.ln, err = net.Listen("tcp", listen); err != nil {
		return nil, err
	}
	return co, nil
}

// ScheduleRescale queues a live parallelism change; it triggers at the first
// globally complete checkpoint epoch >= AtEpoch. Safe from any goroutine
// while the coordinator runs.
func (co *Coordinator) ScheduleRescale(p engine.RescalePlan) error {
	return co.sup.Schedule(p)
}

// Addr is the bound control-plane address workers join.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

func (co *Coordinator) logf(format string, args ...any) {
	if co.opts.Logf != nil {
		co.opts.Logf(format, args...)
	}
}

// workerID renders worker w's cluster-spec ID ("w0".."wN" by caplive
// convention) for aggregation keys and trace provenance.
func (co *Coordinator) workerID(w int) string {
	if w >= 0 && w < len(co.spec.Workers) {
		return co.spec.Workers[w].ID
	}
	return fmt.Sprintf("w%d", w)
}

// trace emits one coordinator-originated event into the cluster timeline.
func (co *Coordinator) trace(ev telemetry.Event) {
	if co.opts.Telemetry == nil {
		return
	}
	ev.Src = "coord"
	co.opts.Telemetry.Tracer().Emit(ev)
}

// WaitJoined accepts worker connections until the cluster is complete.
// Workers are assigned indices in join order.
func (co *Coordinator) WaitJoined(ctx context.Context) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			co.ln.Close()
		case <-done:
		}
	}()
	for len(co.conns) < co.n {
		c, err := co.ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		f, err := engine.ReadFrame(c)
		if err != nil || f.Type != engine.FrameHello {
			c.Close()
			continue
		}
		var join wireJoin
		if err := engine.DecodePayload(f.Payload, &join); err != nil || join.Proto != distProtoVersion {
			c.Close()
			continue
		}
		w := len(co.conns)
		cc := &coordConn{w: &connWriter{c: c}, c: c, addr: c.RemoteAddr().String()}
		cc.lastSeen.Store(co.clk().UnixNano())
		cc.alive.Store(true)
		if err := cc.w.send(engine.FrameWelcome, wireWelcome{Worker: w}); err != nil {
			c.Close()
			continue
		}
		co.connMu.Lock()
		co.conns = append(co.conns, cc)
		co.connMu.Unlock()
		go co.readLoop(w, cc)
		co.logf("worker %d joined from %s", w, c.RemoteAddr())
	}
	return nil
}

// readLoop forwards one worker's frames to the supervision loop. The
// observability plane is intercepted here, off the supervision path: a
// heartbeat's metric deltas and trace events merge into the coordinator hub
// as they arrive, so /metrics and the cluster timeline are live mid-attempt
// without the supervision loop in the way. A heartbeat that does not decode
// is still liveness.
func (co *Coordinator) readLoop(w int, cc *coordConn) {
	worker := co.workerID(w)
	for {
		f, err := engine.ReadFrame(cc.c)
		if err != nil {
			co.events <- coordEvent{worker: w, err: err}
			return
		}
		cc.lastSeen.Store(co.clk().UnixNano())
		if f.Type == engine.FrameHeartbeat && co.agg.tel != nil {
			if hb, err := decodeHeartbeat(f.Payload, worker); err == nil {
				co.agg.apply(worker, hb)
			}
		}
		co.events <- coordEvent{worker: w, frame: f}
	}
}

// Shutdown releases every worker's join loop and closes the control plane.
func (co *Coordinator) Shutdown() {
	for _, cc := range co.conns {
		cc.w.send(engine.FrameShutdown, nil)
		cc.c.Close()
	}
	co.ln.Close()
}

// nextEvent waits for a worker event, a heartbeat-timeout death, or ctx.
func (co *Coordinator) nextEvent(ctx context.Context, alive map[int]bool) (coordEvent, error) {
	tick := time.NewTicker(co.opts.HeartbeatTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case ev := <-co.events:
			return ev, nil
		case <-tick.C:
			if w, stale := co.staleWorker(alive); stale {
				return coordEvent{worker: w, err: fmt.Errorf("heartbeat timeout (%v)", co.opts.HeartbeatTimeout)}, nil
			}
		case <-ctx.Done():
			return coordEvent{}, ctx.Err()
		}
	}
}

// staleWorker reports a live worker whose last frame is older than the
// heartbeat timeout as judged by the injected clock — the liveness
// decision, factored out of nextEvent so clock-driven tests can exercise
// it without real tickers.
func (co *Coordinator) staleWorker(alive map[int]bool) (int, bool) {
	cut := co.clk().Add(-co.opts.HeartbeatTimeout).UnixNano()
	for w := range alive {
		if co.conns[w].lastSeen.Load() < cut {
			return w, true
		}
	}
	return -1, false
}

// Run drives the job to completion across the joined workers — recovering
// from worker deaths when Replan is set, applying scheduled rescales — and
// returns the distributed JobResult assembled from the final attempt's
// reports. The lifecycle is engine.Supervisor's; the coordinator executes
// its attempts.
func (co *Coordinator) Run(ctx context.Context) (*engine.JobResult, error) {
	if len(co.conns) < co.n {
		return nil, fmt.Errorf("controller: Run before WaitJoined completed (%d of %d workers)", len(co.conns), co.n)
	}
	co.start = co.clk()
	if co.replacer != nil {
		co.replacer.ctx = ctx
	}
	res, err := co.sup.Run(ctx, remoteExecutor{co})
	if err == nil && co.replacer != nil {
		co.replacer.export(res)
	}
	return res, err
}

// remoteExecutor is the Coordinator as the supervisor's AttemptExecutor.
type remoteExecutor struct{ co *Coordinator }

// RunAttempt deploys one attempt to every live worker and supervises it to
// its end. The DEPLOY's assignments are the attempt's task set, so workers
// build the topology the supervisor states.
func (x remoteExecutor) RunAttempt(ctx context.Context, at engine.AttemptSpec) (engine.AttemptEnd, error) {
	co := x.co
	co.curAttempt.Store(int64(at.No))
	a := &distAttempt{co: co, at: at, alive: make(map[int]bool, co.n), done: make(map[int]*engine.WorkerReport, co.n)}
	for w := 0; w < co.n; w++ {
		a.alive[w] = true
	}
	for _, w := range at.Dead {
		delete(a.alive, w)
	}
	return a.run(ctx)
}

// distAttempt is the supervision state of one deployed attempt.
type distAttempt struct {
	co    *Coordinator
	at    engine.AttemptSpec
	alive map[int]bool
	// done holds the DONE reports of this attempt read so far: a worker that
	// sent one has nothing left to stop.
	done map[int]*engine.WorkerReport
	// end accumulates what the supervisor needs to know about how the
	// attempt ended: the fault or drain, deaths, fault records.
	end engine.AttemptEnd
}

// run is the two-phase deploy followed by the event pump:
// DEPLOY → READY from everyone → START → supervise until every live worker
// reports DONE, or a fault or a due rescale ends the attempt early.
func (a *distAttempt) run(ctx context.Context) (engine.AttemptEnd, error) {
	co, no := a.co, a.at.No
	assign, err := assignmentsOf(a.at.Tasks, a.at.Plan)
	if err != nil {
		return engine.AttemptEnd{}, err
	}
	restoreSnaps := co.sup.EpochSnapshots(a.at.RestoreEpoch)
	for w := range a.alive {
		// Each task's restore state goes down as it came up, one SNAPSHOT
		// frame per task tagged with the new attempt, ahead of the DEPLOY
		// that uses it.
		for _, s := range restoreSnaps {
			if a.at.Plan.MustWorker(s.Task) != w {
				continue
			}
			if err := co.conns[w].w.sendSnapshot(no, s); err != nil {
				return a.sendFailed(ctx, w, "restore", err)
			}
		}
		d := co.spec
		d.Assign = assign
		d.Attempt = no
		d.Local = w
		d.RestoreEpoch = a.at.RestoreEpoch
		if err := co.conns[w].w.send(engine.FrameDeploy, d); err != nil {
			return a.sendFailed(ctx, w, "deploy", err)
		}
	}

	// Every frame is attempt-tagged, so stale traffic from an aborted
	// attempt (snapshots, late DONE/STOPPED reports) is dropped below.
	peers := make(map[int]string, len(a.alive))
	for len(a.done) < len(a.alive) {
		ev, err := co.nextEvent(ctx, a.alive)
		if err != nil {
			return engine.AttemptEnd{}, err
		}
		if !a.alive[ev.worker] {
			continue
		}
		if ev.err != nil {
			// A connection error after DONE is an exiting worker, not a
			// failure of the attempt.
			if a.done[ev.worker] != nil {
				continue
			}
			a.died(ev.worker, ev.err)
			return a.abort(ctx)
		}
		switch ev.frame.Type {
		case engine.FrameReady:
			var r wireReady
			if err := engine.DecodePayload(ev.frame.Payload, &r); err != nil {
				return engine.AttemptEnd{}, fmt.Errorf("controller: bad READY from worker %d: %w", ev.worker, err)
			}
			if r.Attempt != no || peers[ev.worker] != "" {
				continue
			}
			peers[ev.worker] = r.Addr
			if len(peers) < len(a.alive) {
				continue
			}
			// Everyone is deployed and restored: downtime ends here.
			a.at.Up()
			for w := range a.alive {
				if err := co.conns[w].w.send(engine.FrameStart, wireStart{Attempt: no, Peers: peers}); err != nil {
					return a.sendFailed(ctx, w, "start", err)
				}
			}
		case engine.FrameEpochStart, engine.FrameSnapshot:
			if done, drain := a.checkpoint(ev); drain {
				// The abort is the drain: every task's state as of the epoch
				// is already in the store.
				co.logf("rescale: draining at epoch %d (attempt %d)", done, no)
				a.end.DrainEpoch = done
				a.end.At = co.clk()
				return a.abort(ctx)
			}
		case engine.FramePeerDown:
			var p wirePeer
			if err := engine.DecodePayload(ev.frame.Payload, &p); err != nil || p.Attempt != no {
				continue
			}
			if !a.alive[p.Peer] {
				// Already known dead: recovery via its control-plane
				// liveness is in motion, nothing new to act on.
				co.logf("worker %d reports peer %d unreachable (already dead)", ev.worker, p.Peer)
				continue
			}
			// The accused peer is still control-plane live: the failure is
			// data-plane-only (TCP reset between live workers, a severed
			// shared connection). Heartbeats will never detect it and
			// neither endpoint is provably at fault, so restart the attempt
			// with every worker kept — until the budget is spent, when the
			// accused is treated as dead.
			if co.dpRestarts >= maxDataPlaneRestarts {
				a.died(p.Peer, fmt.Errorf("persistent data-plane failure: worker %d reports it unreachable after %d restarts", ev.worker, co.dpRestarts))
				return a.abort(ctx)
			}
			co.dpRestarts++
			co.trace(telemetry.Event{Kind: telemetry.EventPeerDown, Worker: co.workerID(p.Peer), Attempt: no,
				Attrs: map[string]any{"reporter": ev.worker, "accused": p.Peer, "restart": co.dpRestarts}})
			a.end.Fault = &engine.FailureEvent{Kind: engine.FaultPeerDown, Worker: -1}
			a.end.Cause = fmt.Sprintf("worker %d cannot reach live peer %d (data-plane restart %d/%d)",
				ev.worker, p.Peer, co.dpRestarts, maxDataPlaneRestarts)
			a.end.At = co.clk()
			return a.abort(ctx)
		case engine.FrameDone:
			rep, err := decodeReport(ev.frame.Payload)
			if err != nil {
				return engine.AttemptEnd{}, fmt.Errorf("controller: bad DONE from worker %d: %w", ev.worker, err)
			}
			if rep.Attempt == no {
				a.done[ev.worker] = rep
			}
		}
	}
	for _, r := range a.done {
		a.end.Reports = append(a.end.Reports, r)
	}
	return a.end, nil
}

// decodeReport decodes a DONE or STOPPED payload. The report is another
// process's, so every series name assembleResult will register from it —
// its named metrics (checkRelayed) and, on top, the per-task names of its
// task IDs — is checked here. Every error wraps engine.ErrControlPayload.
func decodeReport(payload []byte) (*engine.WorkerReport, error) {
	rep := new(engine.WorkerReport)
	if err := engine.DecodePayload(payload, rep); err != nil {
		return nil, err
	}
	err := checkRelayed(rep.Metrics, rep.Hists, "")
	for t := range rep.Tasks {
		if err == nil {
			err = metrics.CheckName(metrics.TaskMetricName(string(t.Op), t.Index, "records_in"), metrics.CellName)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", engine.ErrControlPayload, err)
	}
	return rep, nil
}

// sendFailed classifies a failed SNAPSHOT/DEPLOY/START send. A local encode
// failure (a body or a restore snapshot over MaxFramePayload) says nothing
// about the worker, and the oversized data would survive any redeploy: fail
// the run with the real cause. Anything else is the worker's connection.
func (a *distAttempt) sendFailed(ctx context.Context, w int, what string, err error) (engine.AttemptEnd, error) {
	if errors.Is(err, errEncodePayload) || errors.Is(err, engine.ErrFrameTooLarge) {
		return engine.AttemptEnd{}, fmt.Errorf("controller: %s for worker %d: %w", what, w, err)
	}
	a.died(w, err)
	return a.abort(ctx)
}

// checkpoint hands a worker's EPOCH_START or SNAPSHOT frame of this attempt
// to the supervisor, as localCoord does in process; drain reports that the
// epoch it completed made a rescale due. Every EPOCH_START also moves the
// worker's /healthz epoch.
func (a *distAttempt) checkpoint(ev coordEvent) (done int64, drain bool) {
	no := a.at.No
	if ev.frame.Type == engine.FrameEpochStart {
		var e wireEpoch
		if err := engine.DecodePayload(ev.frame.Payload, &e); err == nil && e.Attempt == no {
			a.co.conns[ev.worker].lastEpoch.Store(e.Epoch)
			a.co.sup.EpochStarted(no, e.Epoch)
		}
		return 0, false
	}
	attempt, snap, err := engine.DecodeSnapshot(ev.frame.Payload)
	if err != nil {
		a.co.logf("worker %d: dropping a SNAPSHOT frame of %d bytes: %v", ev.worker, len(ev.frame.Payload), err)
		return 0, false
	}
	if attempt != no {
		return 0, false
	}
	return a.co.sup.RecordSnapshot(no, snap)
}

// maxDataPlaneRestarts bounds how many data-plane-only restarts a run may
// take before a PEERDOWN report escalates to declaring the accused peer
// dead — without a bound, a persistently broken link between two
// control-plane-live workers would restart the job forever.
const maxDataPlaneRestarts = 3

// died declares worker w dead: its connection is closed, it leaves the
// alive set, and the attempt's end records the death. The first death
// becomes the attempt's fault, displacing a drain or a data-plane report.
func (a *distAttempt) died(w int, cause error) {
	co := a.co
	co.logf("worker %d dead (attempt %d): %v", w, a.at.No, cause)
	delete(a.alive, w)
	co.conns[w].alive.Store(false)
	co.conns[w].c.Close()
	co.agg.drop(co.workerID(w))
	a.end.NewDead = append(a.end.NewDead, w)
	a.end.Faults = append(a.end.Faults, engine.FaultRecord{Kind: engine.FaultKillWorker, Worker: w, At: co.clk.Since(co.start)})
	if a.end.Fault == nil || a.end.Fault.Kind != engine.FaultKillWorker {
		a.end.Fault = &engine.FailureEvent{Kind: engine.FaultKillWorker, Worker: w, WorkerID: co.workerID(w)}
		a.end.Cause = fmt.Sprintf("worker %d: %v", w, cause)
	}
	if a.end.At.IsZero() {
		a.end.At = co.clk()
	}
}

// abort ends the attempt early: it aborts every live worker and collects
// their STOPPED progress reports for the supervisor's reprocessing
// accounting (checkpoint snapshots that raced the abort are still
// recorded). A worker whose DONE was already read has stopped, and its DONE
// is its report. A worker dying while stopping is one more death of this
// attempt. Workers silent past StopTimeout are left for the next attempt's
// liveness checks.
func (a *distAttempt) abort(ctx context.Context) (engine.AttemptEnd, error) {
	co, no := a.co, a.at.No
	stopped := make(map[int]bool, len(a.alive))
	for w := range a.alive {
		if rep := a.done[w]; rep != nil {
			stopped[w] = true
			a.end.Reports = append(a.end.Reports, rep)
			continue
		}
		// A failed send surfaces as that worker's read error below.
		_ = co.conns[w].w.send(engine.FrameAbort, wireEpoch{Attempt: no})
	}
	deadline := time.After(co.opts.StopTimeout)
	for len(stopped) < len(a.alive) {
		select {
		case ev := <-co.events:
			if !a.alive[ev.worker] {
				continue
			}
			if ev.err != nil {
				a.died(ev.worker, ev.err)
				delete(stopped, ev.worker) // keep the count over live workers only
				continue
			}
			switch ev.frame.Type {
			case engine.FrameStopped, engine.FrameDone:
				if rep, err := decodeReport(ev.frame.Payload); err == nil && rep.Attempt == no && !stopped[ev.worker] {
					stopped[ev.worker] = true
					a.end.Reports = append(a.end.Reports, rep)
				}
			case engine.FrameEpochStart, engine.FrameSnapshot:
				// Checkpoint traffic that raced the abort is still valid state.
				a.checkpoint(ev)
			}
		case <-deadline:
			return a.end, nil
		case <-ctx.Done():
			return engine.AttemptEnd{}, ctx.Err()
		}
	}
	return a.end, nil
}

// ---------------------------------------------------------------------------
// worker

// JoinOptions tunes the worker-side loop.
type JoinOptions struct {
	// HeartbeatEvery is the liveness reporting interval (default 500ms).
	HeartbeatEvery time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
	// Telemetry, when set, is the worker's hub (pass the same hub to the
	// JobBuilder — NexmarkBuilderWith does). Each heartbeat then piggybacks
	// a metric delta and ships the tracer's new events to the coordinator;
	// nil keeps heartbeats payload-free.
	Telemetry *telemetry.Telemetry
}

// coordClient forwards a worker attempt's checkpoint traffic to the
// coordinator. An EPOCH_START send error is swallowed: a dead coordinator
// surfaces as a read error on the control connection, which ends the join
// loop. A SNAPSHOT error fails the task (engine.CoordClient).
type coordClient struct {
	w       *connWriter
	attempt int
}

func (c *coordClient) EpochStarted(epoch int64) {
	c.w.send(engine.FrameEpochStart, wireEpoch{Attempt: c.attempt, Epoch: epoch})
}

func (c *coordClient) TaskSnapshot(s *engine.TaskSnapshot) error {
	return c.w.sendSnapshot(c.attempt, s)
}

// JoinCluster runs one worker process's control loop: join the coordinator
// at addr, then serve deploy/start/abort cycles until a SHUTDOWN frame (nil
// return), the coordinator vanishes, or ctx is canceled.
func JoinCluster(ctx context.Context, addr string, build JobBuilder, opts JoinOptions) error {
	if build == nil {
		return fmt.Errorf("controller: JoinCluster requires a JobBuilder")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := net.Dialer{Timeout: 10 * time.Second}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	w := &connWriter{c: c}
	if err := w.send(engine.FrameHello, wireJoin{Proto: distProtoVersion}); err != nil {
		return err
	}
	f, err := engine.ReadFrame(c)
	if err != nil {
		return err
	}
	if f.Type != engine.FrameWelcome {
		return fmt.Errorf("controller: expected WELCOME, got frame type %d", f.Type)
	}
	var welcome wireWelcome
	if err := engine.DecodePayload(f.Payload, &welcome); err != nil {
		return err
	}
	me := welcome.Worker
	logf("joined as worker %d", me)

	// The reader goroutine owns the connection; ctx cancellation closes it
	// to unblock the read.
	frames := make(chan coordEvent, 16)
	go func() {
		for {
			f, err := engine.ReadFrame(c)
			if err != nil {
				frames <- coordEvent{err: err}
				return
			}
			frames <- coordEvent{frame: f}
		}
	}()
	// ship sends a heartbeat carrying the metric delta since the previous
	// call and the tracer's new events (stamped with this worker's identity),
	// then, when given one, the attempt's DONE or STOPPED report. It runs on
	// every tick with no report and once with each report, so an attempt that
	// finishes between ticks still lands its telemetry tail at the
	// coordinator — in order on the same connection, ahead of the report. It
	// is the one place both payloads are built, so it drops the gauges JSON
	// cannot carry (NaN, ±Inf) from both: one such reading must cost neither
	// liveness nor the report. shipMu serializes the sampler, which keeps
	// per-call state.
	var shipMu sync.Mutex
	sampler := newHBSampler(opts.Telemetry)
	feed := opts.Telemetry.Tracer().Subscribe(0)
	srcID := fmt.Sprintf("w%d", me)
	ship := func(typ byte, rep *engine.WorkerReport) error {
		shipMu.Lock()
		defer shipMu.Unlock()
		hb := wireHeartbeat{Stats: sampler.sample(), Events: feed.Drain(maxBeatEvents), Dropped: feed.Dropped()}
		for i := range hb.Events {
			hb.Events[i].Src = srcID
			hb.Events[i].WSeq = hb.Events[i].Seq
		}
		if hb.Stats != nil {
			maps.DeleteFunc(hb.Stats.Gauges, nonFinite)
			hb.Stats.FnGauges = slices.DeleteFunc(hb.Stats.FnGauges, func(g telemetry.GaugeSample) bool { return nonFinite("", g.Value) })
		}
		if err := w.send(engine.FrameHeartbeat, hb); err != nil || rep == nil {
			return err
		}
		maps.DeleteFunc(rep.Metrics.Gauges, nonFinite)
		return w.send(typ, rep)
	}
	// One goroutine beats on the ticker and, on ctx's end, closes the
	// connection to unblock the read and any write. A failed beat stops the
	// beating only: the connection's end reaches the loop below as a read
	// error.
	stopHB := make(chan struct{})
	defer close(stopHB)
	go func() {
		t := time.NewTicker(opts.HeartbeatEvery)
		defer t.Stop()
		beat := t.C
		for {
			select {
			case <-beat:
				if ship(0, nil) != nil {
					beat = nil
				}
			case <-ctx.Done():
				c.Close()
				return
			case <-stopHB:
				return
			}
		}
	}()

	var run *engine.WorkerRun
	var attempt int
	// restore collects, per attempt, the SNAPSHOT frames the coordinator
	// sends ahead of a DEPLOY; a DEPLOY takes its own attempt's and drops the
	// rest.
	restore := make(map[int][]*engine.TaskSnapshot)
	runDone := make(chan *engine.WorkerRun, 1)
	// A live attempt must not outlive the control loop (the process may be
	// long-lived: tests join many clusters from one process).
	defer func() {
		if run != nil {
			run.Abort()
			<-run.Done()
		}
	}()
	for {
		select {
		case fe := <-frames:
			if fe.err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("controller: coordinator connection lost: %w", fe.err)
			}
			switch fe.frame.Type {
			case engine.FrameSnapshot:
				at, s, err := engine.DecodeSnapshot(fe.frame.Payload)
				if err != nil {
					return fmt.Errorf("controller: bad SNAPSHOT: %w", err)
				}
				restore[at] = append(restore[at], s)
			case engine.FrameDeploy:
				var spec DeploySpec
				if err := engine.DecodePayload(fe.frame.Payload, &spec); err != nil {
					return fmt.Errorf("controller: bad DEPLOY: %w", err)
				}
				snaps := restore[spec.Attempt]
				clear(restore)
				if run != nil {
					run.Abort()
					<-run.Done()
				}
				job, err := build(spec)
				if err != nil {
					return fmt.Errorf("controller: building job for deploy: %w", err)
				}
				attempt = spec.Attempt
				run, err = job.PrepareWorkerAttempt(engine.WorkerNetConfig{
					Local:        spec.Local,
					AttemptNo:    spec.Attempt,
					RestoreEpoch: spec.RestoreEpoch,
					Snapshots:    snaps,
					Coord:        &coordClient{w: w, attempt: spec.Attempt},
					OnPeerDown: func(peer int, err error) {
						w.send(engine.FramePeerDown, wirePeer{Attempt: spec.Attempt, Peer: peer})
					},
				})
				if err != nil {
					// A restore set lacking one of this worker's tasks ends here.
					return fmt.Errorf("controller: bad DEPLOY of attempt %d: %w", spec.Attempt, err)
				}
				logf("attempt %d prepared (restore epoch %d), data plane on %s", spec.Attempt, spec.RestoreEpoch, run.DataAddr())
				if err := w.send(engine.FrameReady, wireReady{Attempt: spec.Attempt, Addr: run.DataAddr()}); err != nil {
					return err
				}
			case engine.FrameStart:
				var st wireStart
				if err := engine.DecodePayload(fe.frame.Payload, &st); err != nil {
					return fmt.Errorf("controller: bad START: %w", err)
				}
				if run == nil || st.Attempt != attempt {
					continue
				}
				run.Start(ctx, st.Peers)
				go func(r *engine.WorkerRun) {
					<-r.Done()
					runDone <- r
				}(run)
				logf("attempt %d started", attempt)
			case engine.FrameAbort:
				if run == nil {
					continue
				}
				run.Abort()
				<-run.Done()
				rep, err := run.Report()
				if err != nil {
					return fmt.Errorf("controller: aborted attempt %d: %w", attempt, err)
				}
				run = nil
				logf("attempt %d aborted", attempt)
				if err := ship(engine.FrameStopped, rep); err != nil {
					return err
				}
			case engine.FrameShutdown:
				logf("shutdown")
				return nil
			}
		case r := <-runDone:
			if r != run {
				continue // aborted attempt already reported via STOPPED
			}
			rep, err := r.Report()
			if err != nil {
				return fmt.Errorf("controller: attempt %d: %w", attempt, err)
			}
			run = nil
			logf("attempt %d done: %d records in across %d tasks", rep.Attempt, sumRecordsIn(rep), len(rep.Tasks))
			typ := byte(engine.FrameDone)
			if !rep.Completed {
				typ = engine.FrameStopped
			}
			if err := ship(typ, rep); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// maxBeatEvents bounds the trace events one HEARTBEAT carries (a few hundred
// bytes of JSON each). It is above the feed's capacity, so a beat empties a
// quiet feed — the last beat before a report ships the attempt's whole tail.
const maxBeatEvents = 4096

// nonFinite reports a gauge reading JSON cannot carry: NaN or ±Inf.
func nonFinite(_ string, v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func sumRecordsIn(rep *engine.WorkerReport) int64 {
	var n int64
	for _, t := range rep.Tasks {
		n += t.RecordsIn
	}
	return n
}
