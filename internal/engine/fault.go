package engine

import (
	"fmt"
	"sync"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// FaultKind classifies an injected failure.
type FaultKind int

const (
	// FaultKillWorker kills every task placed on one worker.
	FaultKillWorker FaultKind = iota
	// FaultCrashTask crashes a single task after it has processed a fixed
	// number of input records.
	FaultCrashTask
	// FaultStallTask pauses a task (simulating a stalled channel or a GC /
	// network hiccup) for a fixed wall-clock duration.
	FaultStallTask
	// FaultPeerDown is a data-plane failure between two live workers of a
	// distributed run: nobody died, so the attempt restarts in place.
	FaultPeerDown
)

// String names the fault kind for reports and metrics.
func (k FaultKind) String() string {
	switch k {
	case FaultKillWorker:
		return "kill-worker"
	case FaultCrashTask:
		return "crash-task"
	case FaultStallTask:
		return "stall-task"
	case FaultPeerDown:
		return "peer-down"
	default:
		return "unknown"
	}
}

// WorkerKill kills worker Worker as soon as each of its tasks completes
// snapshot epoch AtEpoch. Tying the kill to the job's epoch counter (the
// step clock advanced by checkpoint barriers) rather than wall-clock time
// makes the failure point deterministic: the prefix of the stream processed
// before death is exactly the epoch-AtEpoch prefix, independent of
// scheduling. Requires JobOptions.SnapshotInterval > 0.
type WorkerKill struct {
	Worker  int
	AtEpoch int64
}

// TaskCrash crashes task Task immediately after it has processed
// AfterRecords input records. The record counter is per-task and
// deterministic, so the crash point is replayable from the same seed.
type TaskCrash struct {
	Task         dataflow.TaskID
	AfterRecords int64
}

// TaskStall pauses task Task for Stall (wall-clock) once it has processed
// AfterRecords input records. Stalls perturb timing only — counters remain
// deterministic — and are useful for exercising backpressure under slowness.
type TaskStall struct {
	Task         dataflow.TaskID
	AfterRecords int64
	Stall        time.Duration
}

// FaultPlan is a deterministic failure schedule for one job run. Every
// trigger is expressed against the job's logical progress (snapshot epochs
// or per-task record counts), never wall-clock time, so the same plan + the
// same seed reproduces the same failure byte-for-byte.
type FaultPlan struct {
	KillWorkers []WorkerKill
	CrashTasks  []TaskCrash
	StallTasks  []TaskStall
}

// FaultRecord describes one fault that actually fired during a run.
type FaultRecord struct {
	Kind      FaultKind
	Worker    int             // for FaultKillWorker
	Task      dataflow.TaskID // triggering task (first task for worker kills)
	Epoch     int64           // snapshot epoch at the trigger point
	Records   int64           // task input records at the trigger point
	Recovered bool            // true if the job restarted from a checkpoint
	At        time.Duration   // wall-clock offset from job start (informational)
}

// FailureEvent is handed to JobOptions.OnFailure when a recoverable fault
// aborts the current attempt. DeadWorkers lists every worker index lost so
// far (cumulative across recoveries); the callback must return a plan that
// avoids all of them.
type FailureEvent struct {
	Kind        FaultKind
	Worker      int    // failed worker index (kill faults), -1 otherwise
	WorkerID    string // failed worker ID from the cluster spec, "" otherwise
	Task        dataflow.TaskID
	Epoch       int64 // last snapshot epoch completed by the triggering task
	DeadWorkers []int // all workers lost so far, ascending
	Attempt     int   // 1-based attempt number that failed
}

// faultState tracks which faults have fired across all attempts of a job
// run. Fire-once bookkeeping lives here (not in per-attempt state) so a
// crash does not re-trigger after the restarted task replays past its
// trigger point.
type faultState struct {
	mu         sync.Mutex
	plan       FaultPlan     // immutable after newFaultState
	crashFired []bool        // guarded by mu
	stallFired []bool        // guarded by mu
	killNoted  []bool        // guarded by mu
	records    []FaultRecord // guarded by mu
	start      time.Time
	clk        clock.Clock
	tracer     *telemetry.Tracer // nil-safe; emits fault.injected events
}

func newFaultState(plan FaultPlan, start time.Time, clk clock.Clock, tracer *telemetry.Tracer) *faultState {
	return &faultState{
		plan:       plan,
		crashFired: make([]bool, len(plan.CrashTasks)),
		stallFired: make([]bool, len(plan.StallTasks)),
		killNoted:  make([]bool, len(plan.KillWorkers)),
		start:      start,
		clk:        clk.OrSystem(),
		tracer:     tracer,
	}
}

// trace emits the structured event for one fired fault. Called with the
// mutex held (Emit takes only the tracer's own lock).
func (f *faultState) trace(rec FaultRecord) {
	ev := telemetry.Event{
		Kind:  telemetry.EventFault,
		Task:  rec.Task.String(),
		Op:    string(rec.Task.Op),
		Epoch: rec.Epoch,
		Attrs: map[string]any{
			"fault":   rec.Kind.String(),
			"records": rec.Records,
		},
	}
	if rec.Worker >= 0 {
		ev.Worker = fmt.Sprintf("%d", rec.Worker)
	}
	f.tracer.Emit(ev)
}

// killEpochFor returns the epoch at which tasks on worker w must die, or
// (-1, -1) if no kill targets w. The kill stays "armed" for the whole run;
// after a recovery the dead worker hosts no tasks, so it cannot re-fire.
func (f *faultState) killEpochFor(w int) (epoch int64, idx int) {
	for i, k := range f.plan.KillWorkers {
		if k.Worker == w {
			return k.AtEpoch, i
		}
	}
	return -1, -1
}

// noteKill records the worker-kill fault record exactly once (the first
// task on the worker to reach the kill epoch reports it).
func (f *faultState) noteKill(idx int, rec FaultRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if idx >= 0 && idx < len(f.killNoted) {
		if f.killNoted[idx] {
			return
		}
		f.killNoted[idx] = true
	}
	rec.At = f.clk.Since(f.start)
	f.records = append(f.records, rec)
	f.trace(rec)
}

// shouldCrash reports whether task t must crash now, given that it has just
// finished processing its n-th input record. Fires at most once per entry
// across all attempts.
func (f *faultState) shouldCrash(t dataflow.TaskID, n int64) bool {
	// Fast path: the plan is immutable, so an empty crash list never fires
	// and the per-record mutex round-trip can be skipped entirely.
	if len(f.plan.CrashTasks) == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, c := range f.plan.CrashTasks {
		if c.Task == t && !f.crashFired[i] && n == c.AfterRecords {
			f.crashFired[i] = true
			return true
		}
	}
	return false
}

// stallFor returns the stall duration due for task t at input record n, or
// 0. Fires at most once per entry across all attempts.
func (f *faultState) stallFor(t dataflow.TaskID, n int64) time.Duration {
	// Fast path mirroring shouldCrash: no stalls planned, no lock taken.
	if len(f.plan.StallTasks) == 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.plan.StallTasks {
		if s.Task == t && !f.stallFired[i] && n == s.AfterRecords {
			f.stallFired[i] = true
			rec := FaultRecord{
				Kind:    FaultStallTask,
				Worker:  -1,
				Task:    t,
				Records: n,
				At:      f.clk.Since(f.start),
			}
			f.records = append(f.records, rec)
			f.trace(rec)
			return s.Stall
		}
	}
	return 0
}

// note appends a fault record (crash faults; kills go through noteKill).
func (f *faultState) note(rec FaultRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rec.At = f.clk.Since(f.start)
	f.records = append(f.records, rec)
	f.trace(rec)
}

// takeNew returns the fault records that fired since the previous call; the
// local executor hands each attempt's share to the supervisor, which owns the
// run's fault list and marks recoveries.
func (f *faultState) takeNew() []FaultRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.records
	f.records = nil
	return out
}
