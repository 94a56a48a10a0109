package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the engine's worker-side surface for distributed runs: a
// controller process (see internal/controller) deploys one Job per worker
// process, runs exactly that worker's tasks as an attempt over the network
// transport, and collects snapshots and final reports over the control
// plane. What crosses that plane is the engine's own vocabulary —
// dataflow.TaskID, TaskSnapshot, TaskStats, metrics.TypedValues — all of it
// gob-safe as declared.

// CoordClient is the worker's view of the coordinator's checkpoint
// surface. The controller package implements it over control-plane frames.
type CoordClient interface {
	// EpochStarted reports the first barrier injection of an epoch by a
	// local source task.
	EpochStarted(epoch int64)
	// TaskSnapshot ships one task's checkpoint contribution. The
	// coordinator's Supervisor holds it as durable remote checkpoint
	// storage, so snapshots survive worker loss.
	TaskSnapshot(s *TaskSnapshot)
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
	Snapshots    []*TaskSnapshot
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
	snaps        map[dataflow.TaskID]*TaskSnapshot

	mu      sync.Mutex
	started map[int64]bool
}

func newRemoteCoordinator(cfg WorkerNetConfig) *remoteCoordinator {
	rc := &remoteCoordinator{
		client:       cfg.Coord,
		restoreEpoch: cfg.RestoreEpoch,
		snaps:        make(map[dataflow.TaskID]*TaskSnapshot, len(cfg.Snapshots)),
		started:      make(map[int64]bool),
	}
	for _, s := range cfg.Snapshots {
		rc.snaps[s.Task] = s
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

func (c *remoteCoordinator) record(s *TaskSnapshot) int64 {
	if c.client != nil {
		c.client.TaskSnapshot(s)
	}
	return 0 // epoch completion is global knowledge; only the coordinator has it
}

func (c *remoteCoordinator) lastCompleteEpoch() int64 { return c.restoreEpoch }

func (c *remoteCoordinator) snapshotFor(t dataflow.TaskID, epoch int64) *TaskSnapshot {
	if epoch <= 0 || epoch != c.restoreEpoch {
		return nil
	}
	return c.snaps[t]
}

func (c *remoteCoordinator) snapshotsTaken() int64 { return 0 }

// WorkerReport is one worker's contribution to a distributed JobResult,
// sent over the control plane when its attempt finishes (or is aborted —
// Completed distinguishes the two; aborted reports carry the progress
// counters the coordinator needs for reprocessing accounting).
type WorkerReport struct {
	Worker    int
	Attempt   int
	Completed bool
	Lost      int64
	// Tasks holds the local tasks' counters; the fields derived from the
	// run's elapsed time (UsefulFraction, Observed*Rate) are assembleResult's
	// to fill.
	Tasks map[dataflow.TaskID]TaskStats
	// Metrics is this attempt's share of every exchange.* and net.* series —
	// the cell's value minus its value when the attempt was built — and
	// Hists the same for the wire-credit wait distribution (mergeable across
	// workers, so the assembled result can report a cluster-wide p99). Both
	// are the generic form heartbeats already ship; assembleResult merges
	// them by name.
	Metrics metrics.TypedValues
	Hists   map[string]telemetry.HistogramSnapshot
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
		Tasks:     make(map[dataflow.TaskID]TaskStats, len(a.tasks)),
		Metrics:   a.reg.TypedSnapshot(),
	}
	if a.dist != nil {
		rep.Worker = a.dist.Local
	}
	for _, rt := range a.tasks {
		rep.Tasks[rt.id] = TaskStats{
			Worker:        rt.worker,
			RecordsIn:     rt.recordsIn,
			RecordsOut:    rt.recordsOut,
			BytesOut:      rt.bytesOut,
			BusyTime:      rt.busy,
			BackpressureT: rt.bp,
			Sink:          rt.isSink,
			Source:        rt.numIn == 0,
			Dead:          rt.dead,
		}
	}
	// The cells are process-cumulative when they live in a hub; the base
	// taken at construction scopes them to this attempt.
	for n := range rep.Metrics.Counters {
		rep.Metrics.Counters[n] -= a.base.Counters[n]
	}
	for n := range rep.Metrics.Times {
		rep.Metrics.Times[n] -= a.base.Times[n]
	}
	if a.net != nil {
		rep.Hists = map[string]telemetry.HistogramSnapshot{creditWaitSeries: a.net.creditWaitSnapshot()}
	}
	return rep
}
