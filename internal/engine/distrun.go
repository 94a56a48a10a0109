package engine

import (
	"context"
	"fmt"

	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the engine's worker-side surface for distributed runs: a
// controller process (see internal/controller) deploys one Job per worker
// process, runs exactly that worker's tasks as an attempt over the network
// transport, and collects snapshots and final reports over the control
// plane. What crosses that plane is the engine's own vocabulary —
// dataflow.TaskID, TaskStats, metrics.TypedValues as JSON, TaskSnapshot in
// its SNAPSHOT layout — with no wire-only mirror types.

// CoordClient is an attempt's view of the Supervisor's checkpoint surface,
// the same in both executors: in process it calls Supervisor.EpochStarted
// and RecordSnapshot directly (localCoord), on a worker the controller
// package ships both as control-plane frames to the coordinator, which makes
// the same two calls.
type CoordClient interface {
	// EpochStarted reports an epoch's first barrier injection in this
	// attempt, once however many of the attempt's sources inject it.
	EpochStarted(epoch int64)
	// TaskSnapshot ships one task's checkpoint contribution. The Supervisor
	// holds it as durable checkpoint storage, so snapshots survive worker
	// loss. An error — a snapshot too large to ship, a failed send — fails
	// the task: an epoch missing its contribution would never complete.
	TaskSnapshot(s *TaskSnapshot) error
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
	// Snapshots must hold every local task's snapshot at RestoreEpoch (the
	// coordinator sends each as a SNAPSHOT frame ahead of the DEPLOY), or
	// PrepareWorkerAttempt refuses the attempt.
	RestoreEpoch int64
	Snapshots    []*TaskSnapshot
	// Coord receives epoch starts and snapshots (nil drops them — only
	// sensible when SnapshotInterval is 0).
	Coord CoordClient
	// OnPeerDown is invoked (once per peer) when a data-plane send to a
	// peer worker fails mid-run.
	OnPeerDown func(worker int, err error)
}

// WorkerReport is one worker's contribution to a distributed JobResult,
// sent over the control plane when its attempt finishes (or is aborted —
// Completed distinguishes the two; aborted reports carry the progress
// counters the coordinator needs for reprocessing accounting).
type WorkerReport struct {
	Worker    int
	Attempt   int
	Completed bool
	Lost      int64
	// Tasks holds the local tasks' counters, meter draws and keyed-state
	// sizes; the fields derived from the run's elapsed time (UsefulFraction,
	// Observed*Rate) are assembleResult's to fill.
	Tasks map[dataflow.TaskID]TaskStats
	// Metrics holds the attempt's own exchange.* and net.* cells as they
	// read when it reported, its fusion counts (engine.fuse.*, only when it
	// fused) and the token-bucket saturation of its local workers
	// ("worker.<id>.<resource>_saturation" gauges). Hists holds the attempt's
	// own wire-credit wait distribution (mergeable across workers, so the
	// assembled result can report a cluster-wide p99). Both are the generic
	// form heartbeats already ship; assembleResult merges them by name.
	Metrics metrics.TypedValues
	Hists   map[string]telemetry.HistogramSnapshot
}

// WorkerRun is one in-flight worker-local attempt. Start and Abort are
// called from one goroutine (the worker's control loop).
type WorkerRun struct {
	att     *attempt
	done    chan struct{}
	started bool

	// Written before done closes: by the run goroutine, or by Abort for a
	// run that never started.
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
	faults := newFaultState(FaultPlan{}, j.clk(), j.clk, j.opts.Telemetry.Tracer())
	att, err := j.buildAttempt(cfg.AttemptNo, nil, j.plan, faults, cfg.Snapshots, &cfg)
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
	r.started = true
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
		r.report = a.report()
		done.Attrs = map[string]any{"completed": r.report.Completed}
		tr.Emit(done)
	}()
}

// Abort tears the attempt down (recovery: the coordinator will redeploy);
// Done closes once it has stopped. A run that was never started (the
// coordinator aborted between deploy and start) stops here, reporting zero
// progress. Abort may be repeated; Start after Abort may not.
func (r *WorkerRun) Abort() {
	r.att.doAbort()
	if r.started {
		return
	}
	select {
	case <-r.done:
	default:
		r.att.close()
		r.report = r.att.report()
		close(r.done)
	}
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
// in-process one. An attempt completed unless something aborted it — a
// fault, a drain or the coordinator. Every figure is read, as it stands,
// from cells, meters and namespaces the attempt owns.
func (a *attempt) report() *WorkerReport {
	rep := &WorkerReport{
		Worker:    -1,
		Attempt:   a.no,
		Completed: !a.abortFlag.Load(),
		Lost:      a.lost.Load(),
		Tasks:     make(map[dataflow.TaskID]TaskStats, len(a.tasks)),
		Metrics:   a.reg.TypedSnapshot(),
	}
	if a.dist != nil {
		rep.Worker = a.dist.Local
	}
	var fusedRecords int64
	for _, rt := range a.tasks {
		ts := TaskStats{
			Worker:        rt.worker,
			RecordsIn:     rt.recordsIn,
			RecordsOut:    rt.recordsOut,
			BytesOut:      rt.bytesOut,
			BusyTime:      rt.busy,
			BackpressureT: rt.bp,
			Sink:          rt.isSink,
			Source:        rt.numIn == 0,
			Dead:          rt.dead,
			CPUDraw:       rt.cpuShard.total,
			NetDraw:       rt.netShard.total,
		}
		if !rt.fusedIn {
			ts.IODraw = rt.ioShard.total
		}
		if ns := rt.ctx.State; ns != nil {
			ts.Stateful = true
			ts.StateBytes, ts.StateKeys = int64(ns.StoredBytes()), int64(ns.Keys())
		}
		rep.Tasks[rt.id] = ts
		fusedRecords += rt.fusedOut
	}
	// Fusion counts appear only when the attempt actually fused, so unfused
	// jobs — every golden fixture among them — keep an unchanged surface.
	if a.fusedTasks > 0 {
		rep.Metrics.Counters["engine.fuse.chains"] = a.fusedChains
		rep.Metrics.Counters["engine.fuse.tasks"] = a.fusedTasks
		rep.Metrics.Counters["engine.fuse.records"] = fusedRecords
	}
	for i, wr := range a.workers {
		if !localTo(a.dist, i) {
			continue
		}
		id := a.j.spec.Workers[i].ID
		rep.Metrics.Gauges[metrics.WorkerMetricName(id, "cpu_saturation")] = wr.CPU.Utilization()
		rep.Metrics.Gauges[metrics.WorkerMetricName(id, "io_saturation")] = wr.IO.Utilization()
		rep.Metrics.Gauges[metrics.WorkerMetricName(id, "net_saturation")] = wr.Net.Utilization()
	}
	if a.net != nil {
		rep.Hists = map[string]telemetry.HistogramSnapshot{creditWaitSeries: a.net.creditWaitH.Snapshot()}
	}
	return rep
}
