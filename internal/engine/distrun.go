package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// This file is the engine's worker-side surface for distributed runs: a
// controller process (see internal/controller) deploys one Job per worker
// process, runs exactly that worker's tasks as an attempt over the network
// transport, and collects snapshots and final reports over the control
// plane. The types here are wire-safe mirrors of the engine's internal
// state (taskSnapshot has unexported fields; WireSnapshot crosses gob).

// WireTaskID is a task identity in wire-safe form.
type WireTaskID struct {
	Op    string
	Index int
}

func (w WireTaskID) String() string { return fmt.Sprintf("%s[%d]", w.Op, w.Index) }

// less is the canonical task order: by operator, then index.
func (w WireTaskID) less(o WireTaskID) bool {
	if w.Op != o.Op {
		return w.Op < o.Op
	}
	return w.Index < o.Index
}

func (w WireTaskID) taskID() dataflow.TaskID {
	return dataflow.TaskID{Op: dataflow.OperatorID(w.Op), Index: w.Index}
}

func wireTaskOf(t dataflow.TaskID) WireTaskID {
	return WireTaskID{Op: string(t.Op), Index: t.Index}
}

// WireSnapshot is one task's checkpoint contribution in wire-safe form.
// Workers ship these to the coordinator as they are taken — the
// coordinator's Supervisor holds them as durable remote checkpoint storage, so
// snapshots survive worker loss — and receive back the restore set for a
// redeploy.
type WireSnapshot struct {
	Task       WireTaskID
	Epoch      int64
	RecordsIn  int64
	RecordsOut int64
	BytesOut   int64
	SrcOffset  int64
	RR         []int
	OpState    []byte
	NSState    []byte
}

func snapshotToWire(t dataflow.TaskID, s *taskSnapshot) WireSnapshot {
	return WireSnapshot{
		Task:       wireTaskOf(t),
		Epoch:      s.epoch,
		RecordsIn:  s.recordsIn,
		RecordsOut: s.recordsOut,
		BytesOut:   s.bytesOut,
		SrcOffset:  s.srcOffset,
		RR:         s.rr,
		OpState:    s.opState,
		NSState:    s.nsState,
	}
}

func wireToSnapshot(w WireSnapshot) (dataflow.TaskID, *taskSnapshot) {
	return w.Task.taskID(), &taskSnapshot{
		epoch:      w.Epoch,
		recordsIn:  w.RecordsIn,
		recordsOut: w.RecordsOut,
		bytesOut:   w.BytesOut,
		srcOffset:  w.SrcOffset,
		rr:         w.RR,
		opState:    w.OpState,
		nsState:    w.NSState,
	}
}

// CoordClient is the worker's view of the coordinator's checkpoint
// surface. The controller package implements it over control-plane frames.
type CoordClient interface {
	// EpochStarted reports the first barrier injection of an epoch by a
	// local source task.
	EpochStarted(epoch int64)
	// TaskSnapshot ships one task's checkpoint contribution.
	TaskSnapshot(s WireSnapshot)
}

// WorkerNetConfig configures a worker-local attempt of a distributed run.
type WorkerNetConfig struct {
	// Local is this process's worker index in the job's cluster spec.
	Local int
	// AttemptNo is the coordinator's 1-based attempt counter; data-plane
	// handshakes carry it so stale connections from a previous attempt are
	// rejected.
	AttemptNo int
	// DataBind is the data-plane listen address ("127.0.0.1:0" when empty).
	DataBind string
	// RestoreEpoch and Snapshots restore this attempt from a checkpoint:
	// Snapshots must hold every task's snapshot at RestoreEpoch (the
	// coordinator filters to the tasks placed on this worker).
	RestoreEpoch int64
	Snapshots    []WireSnapshot
	// Coord receives epoch starts and snapshots (nil drops them — only
	// sensible when SnapshotInterval is 0).
	Coord CoordClient
	// OnPeerDown is invoked (once per peer) when a data-plane send to a
	// peer worker fails mid-run.
	OnPeerDown func(worker int, err error)
}

// remoteCoordinator adapts CoordClient to the attempt's coordinator
// interface: snapshots stream out as frames; restores are served from the
// deploy-shipped snapshot set.
type remoteCoordinator struct {
	client       CoordClient
	restoreEpoch int64
	snaps        map[dataflow.TaskID]*taskSnapshot

	mu      sync.Mutex
	started map[int64]bool
}

func newRemoteCoordinator(cfg WorkerNetConfig) *remoteCoordinator {
	rc := &remoteCoordinator{
		client:       cfg.Coord,
		restoreEpoch: cfg.RestoreEpoch,
		snaps:        make(map[dataflow.TaskID]*taskSnapshot, len(cfg.Snapshots)),
		started:      make(map[int64]bool),
	}
	for _, w := range cfg.Snapshots {
		t, s := wireToSnapshot(w)
		rc.snaps[t] = s
	}
	return rc
}

func (c *remoteCoordinator) noteStarted(epoch int64) bool {
	c.mu.Lock()
	first := !c.started[epoch]
	c.started[epoch] = true
	c.mu.Unlock()
	if first && c.client != nil {
		c.client.EpochStarted(epoch)
	}
	return first
}

func (c *remoteCoordinator) record(t dataflow.TaskID, s *taskSnapshot) int64 {
	if c.client != nil {
		c.client.TaskSnapshot(snapshotToWire(t, s))
	}
	return 0 // epoch completion is global knowledge; only the coordinator has it
}

func (c *remoteCoordinator) lastCompleteEpoch() int64 { return c.restoreEpoch }

func (c *remoteCoordinator) snapshotFor(t dataflow.TaskID, epoch int64) *taskSnapshot {
	if epoch <= 0 || epoch != c.restoreEpoch {
		return nil
	}
	return c.snaps[t]
}

func (c *remoteCoordinator) snapshotsTaken() int64 { return 0 }

// WireTaskStats is one task's final counters in wire-safe form.
type WireTaskStats struct {
	Task                WireTaskID
	Worker              int
	RecordsIn           int64
	RecordsOut          int64
	BytesOut            int64
	BusySeconds         float64
	BackpressureSeconds float64
	IsSink              bool
	IsSource            bool
	Dead                bool
}

// WorkerReport is one worker's contribution to a distributed JobResult,
// sent over the control plane when its attempt finishes (or is aborted —
// Completed distinguishes the two; aborted reports carry the progress
// counters the coordinator needs for reprocessing accounting).
type WorkerReport struct {
	Worker    int
	Attempt   int
	Completed bool
	Tasks     []WireTaskStats
	Lost      int64

	Batches            int64
	BatchRecords       int64
	CreditStalls       int64
	CreditStallSeconds float64

	NetFramesSent       int64
	NetFramesRecv       int64
	NetBytesSent        int64
	NetBytesRecv        int64
	NetCreditFrames     int64
	NetDataBatches      int64
	NetUnexpectedFrames int64
	NetDials            int64
	NetReconnects       int64
	NetEncodeErrors     int64
	// NetCreditWait is this attempt's wire-credit wait distribution (how
	// long senders blocked on mirror-gate credit) — mergeable across
	// workers, so the assembled result can report a cluster-wide p99.
	NetCreditWait    telemetry.HistogramSnapshot
	SnapshotsShipped int64
}

// WorkerRun is one in-flight worker-local attempt.
type WorkerRun struct {
	att     *attempt
	done    chan struct{}
	aborted atomic.Bool
	once    sync.Once

	// Written by the run goroutine before done closes.
	report *WorkerReport
	err    error
}

// PrepareWorkerAttempt builds this worker's share of the job — only tasks
// placed on cfg.Local are instantiated; every cross-worker edge becomes a
// wire endpoint — and binds the data-plane listener. The job must use
// TransportNetwork. Call DataAddr to learn the bound address, then Start
// once every peer's address is known.
func (j *Job) PrepareWorkerAttempt(cfg WorkerNetConfig) (*WorkerRun, error) {
	if cfg.Local < 0 || cfg.Local >= len(j.spec.Workers) {
		return nil, fmt.Errorf("engine: local worker %d out of range", cfg.Local)
	}
	if cfg.AttemptNo <= 0 {
		cfg.AttemptNo = 1
	}
	rc := newRemoteCoordinator(cfg)
	faults := newFaultState(FaultPlan{}, j.clk(), j.clk, j.opts.Telemetry.Tracer())
	att, err := j.buildAttempt(cfg.AttemptNo, j.plan, rc, faults, cfg.RestoreEpoch, &cfg)
	if err != nil {
		return nil, err
	}
	return &WorkerRun{att: att, done: make(chan struct{})}, nil
}

// DataAddr is the bound data-plane listen address.
func (r *WorkerRun) DataAddr() string {
	return r.att.net.nodes[r.att.dist.Local].ln.Addr().String()
}

// Start launches the attempt. peers maps every other worker index to its
// data address.
func (r *WorkerRun) Start(ctx context.Context, peers map[int]string) {
	r.att.net.setPeers(peers)
	a := r.att
	tr := a.j.opts.Telemetry.Tracer()
	workerID := a.j.spec.Workers[a.dist.Local].ID
	tr.Emit(telemetry.Event{
		Kind:    telemetry.EventWorkerAttemptStart,
		Worker:  workerID,
		Attempt: a.no,
		Epoch:   a.dist.RestoreEpoch,
	})
	go func() {
		defer close(r.done)
		err := a.run(ctx)
		a.close()
		done := telemetry.Event{
			Kind:    telemetry.EventWorkerAttemptDone,
			Worker:  workerID,
			Attempt: a.no,
		}
		if err != nil {
			r.err = err
			done.Attrs = map[string]any{"error": err.Error()}
			tr.Emit(done)
			return
		}
		r.report = a.report(!r.aborted.Load())
		done.Attrs = map[string]any{"completed": r.report.Completed}
		tr.Emit(done)
	}()
}

// Abort tears the attempt down (recovery: the coordinator will redeploy).
func (r *WorkerRun) Abort() {
	r.aborted.Store(true)
	r.once.Do(r.att.doAbort)
}

// Discard tears down a prepared attempt that was never started (the
// coordinator aborted between deploy and start) and returns its
// zero-progress report. Must not be combined with Start.
func (r *WorkerRun) Discard() *WorkerReport {
	r.aborted.Store(true)
	r.once.Do(r.att.doAbort)
	r.att.close()
	rep := r.att.report(false)
	r.report = rep
	close(r.done)
	return rep
}

// Done closes when the attempt has fully stopped.
func (r *WorkerRun) Done() <-chan struct{} { return r.done }

// Report returns the final report; valid only after Done.
func (r *WorkerRun) Report() (*WorkerReport, error) {
	if r.err != nil {
		return nil, r.err
	}
	return r.report, nil
}

// report assembles the attempt's counters once no task goroutine remains:
// this worker's share in a distributed attempt, every task (Worker -1) in an
// in-process one.
func (a *attempt) report(completed bool) *WorkerReport {
	rep := &WorkerReport{
		Worker:    -1,
		Attempt:   a.no,
		Completed: completed,
		Lost:      a.lost.Load(),
	}
	if a.dist != nil {
		rep.Worker = a.dist.Local
	}
	for _, rt := range a.tasks {
		rep.Tasks = append(rep.Tasks, WireTaskStats{
			Task:                wireTaskOf(rt.id),
			Worker:              rt.worker,
			RecordsIn:           rt.recordsIn,
			RecordsOut:          rt.recordsOut,
			BytesOut:            rt.bytesOut,
			BusySeconds:         rt.busy.Seconds(),
			BackpressureSeconds: rt.bp.Seconds(),
			IsSink:              rt.isSink,
			IsSource:            rt.numIn == 0,
			Dead:                rt.dead,
		})
		rep.Batches += rt.batches
		rep.BatchRecords += rt.batchRecords
		rep.CreditStalls += rt.creditStalls
		rep.CreditStallSeconds += rt.creditStallT.Seconds()
	}
	sort.Slice(rep.Tasks, func(i, k int) bool { return rep.Tasks[i].Task.less(rep.Tasks[k].Task) })
	if na := a.net; na != nil {
		rep.NetFramesSent = na.framesSent.Load()
		rep.NetFramesRecv = na.framesRecv.Load()
		rep.NetBytesSent = na.bytesSent.Load()
		rep.NetBytesRecv = na.bytesRecv.Load()
		rep.NetCreditFrames = na.creditFrames.Load()
		rep.NetDataBatches = na.dataBatches.Load()
		rep.NetUnexpectedFrames = na.unexpectedFrames.Load()
		rep.NetDials = na.dials.Load()
		rep.NetReconnects = na.reconnects.Load()
		rep.NetEncodeErrors = na.encodeErrors.Load()
		rep.NetCreditWait = na.creditWaitSnapshot()
	}
	return rep
}
