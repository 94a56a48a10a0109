package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"capsys/internal/clock"
	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the job lifecycle, written once for in-process and
// distributed runs (DESIGN.md "Job lifecycle"):
//
//	for { end := exec.RunAttempt(attempt, plan, restoreEpoch)
//	      switch end { done → result | fault → recover | drained → rescale } }
//
// The Supervisor owns everything that is policy. It drives the epoch ledger
// (epochledger.go) — the task set, checkpoint completion, the pending-rescale
// queue, "faults win over rescales" and the restore epoch — behind one lock,
// and keeps around it attempt numbering, the dead set, reprocessed
// accounting, the two downtime clocks, plan validation, the default rescale
// placement, the run aggregate, job/checkpoint/recovery/rescale trace events
// and result assembly. An AttemptExecutor owns everything that is mechanism:
// how tasks are deployed (goroutines here, a two-phase TCP deploy in
// internal/controller) and how a fault is detected. The ledger's task set is
// the one statement of the running topology: an executor derives an
// attempt's graph from AttemptSpec.Tasks.

// AttemptExecutor deploys and runs single attempts of a job on behalf of a
// Supervisor. RunAttempt is called from Supervisor.Run's goroutine only.
type AttemptExecutor interface {
	// RunAttempt deploys at.Plan restored from at.RestoreEpoch and blocks
	// until the attempt ends: every task finished, a fault aborted it, or it
	// drained because RecordSnapshot answered drain. By the time it
	// returns no task of the attempt is running. A non-nil error is
	// unrecoverable and fails the run.
	RunAttempt(ctx context.Context, at AttemptSpec) (AttemptEnd, error)
}

// AttemptSpec is one attempt as the supervisor wants it run.
type AttemptSpec struct {
	// No is the 1-based attempt number.
	No int
	// Tasks is the job's current task set, and with it every operator's
	// parallelism; Plan assigns exactly these tasks to workers outside Dead,
	// within every worker's slot capacity.
	Tasks []dataflow.TaskID
	Plan  *dataflow.Plan
	// RestoreEpoch is the checkpoint epoch to restore from (0 = start empty).
	RestoreEpoch int64
	// Dead lists every worker lost so far, ascending.
	Dead []int
	// Up must be called exactly once, when the attempt is deployed and
	// restored and its tasks are about to start: it closes the downtime
	// clocks a preceding fault or rescale opened.
	Up func()
}

// AttemptEnd describes how an attempt ended. Without a Fault it drained if
// RecordSnapshot answered drain during it, and otherwise ran to completion
// and Reports are final.
type AttemptEnd struct {
	// Fault is the fault that aborted the attempt. Kind, Worker, WorkerID,
	// Task and Epoch are the executor's; the supervisor fills DeadWorkers
	// and Attempt. A fault wins over a simultaneous drain.
	Fault *FailureEvent
	// Cause says in words what the executor observed, for the log and the
	// recovery.start event ("heartbeat timeout (5s)").
	Cause string
	// NewDead lists workers that died during this attempt, including while
	// it was being aborted or drained.
	NewDead []int
	// At is when the fault's outage began. A drain's begins when the
	// supervisor answers it.
	At time.Time
	// Faults are the fault records that fired during this attempt.
	Faults []FaultRecord
	// Reports carry the surviving workers' per-task counters: final on
	// completion, progress so far otherwise.
	Reports []*WorkerReport
}

// Failures the supervisor ends a run with, matchable with errors.Is.
var (
	// ErrInvalidPlan marks a placement the supervisor refused to deploy.
	ErrInvalidPlan = errors.New("engine: invalid plan")
	// ErrAllWorkersDead ends a run whose last live worker died.
	ErrAllWorkersDead = errors.New("engine: all workers dead")
	// ErrNoReplacementHook ends a run in which a worker died and no OnFault
	// hook exists to re-place its tasks.
	ErrNoReplacementHook = errors.New("no re-placement hook is configured")
	// ErrWorkerID refuses a worker ID that is empty, repeated or holds a
	// '.': an ID is the label part of "worker.<id>.<metric>" series, and a
	// dot in it would move the ID's tail into the family.
	ErrWorkerID = errors.New("engine: invalid worker ID")
	// ErrRescaleRefused marks a rescale that can never apply. Scheduling
	// refuses an unknown or source operator, a parallelism outside [1,
	// KeyGroups], a negative epoch, a job without SnapshotInterval and a
	// Forward-edge peer pinning the operator's parallelism; the drain refuses
	// a source a caller let through and an operator whose tasks keep a
	// Snapshotter image.
	ErrRescaleRefused = errors.New("engine: rescale refused")
	// ErrMissingSnapshot refuses an attempt that restores an epoch without a
	// snapshot of one of its tasks at that epoch.
	ErrMissingSnapshot = errors.New("engine: missing snapshot")
)

// typedError is err, matching kind as well under errors.Is: a typed failure
// whose text stays its own.
type typedError struct{ kind, err error }

func (e typedError) Error() string   { return e.err.Error() }
func (e typedError) Unwrap() []error { return []error{e.kind, e.err} }

// rescaleRefused is an ErrRescaleRefused failure with its own text.
func rescaleRefused(format string, args ...any) error {
	return typedError{ErrRescaleRefused, fmt.Errorf(format, args...)}
}

// SupervisorConfig describes the job a Supervisor runs.
type SupervisorConfig struct {
	// Tasks and Plan are the initial task set and its placement; Workers
	// gives each worker's ID and slot capacity.
	Tasks   []dataflow.TaskID
	Plan    *dataflow.Plan
	Workers []WorkerSpec
	// KeyGroups is the job's fixed key-group count, SnapshotInterval its
	// checkpoint interval (rescales need one) and Transport its data plane.
	KeyGroups        int
	SnapshotInterval int64
	Transport        string
	// OnFault re-places after a fault. A nil hook makes worker deaths
	// fatal; a nil plan keeps the placement (non-death faults only).
	OnFault func(FailureEvent) (*dataflow.Plan, error)
	// OnRescale re-places a drain's rescaled task set given the previous
	// plan, once per drain; nil keeps surviving tasks in place and packs new
	// ones onto free slots.
	OnRescale func(RescaleEvent, *dataflow.Plan) (*dataflow.Plan, error)
	// Emit receives lifecycle trace events, Logf progress lines (both may
	// be nil, and both must be safe for concurrent use: checkpoint progress
	// arrives from task goroutines in process, under the supervisor's lock,
	// so neither may call back into the supervisor); Now is the clock (nil =
	// system).
	Emit func(telemetry.Event)
	Logf func(format string, args ...any)
	Now  clock.Clock
}

// runAgg accumulates a run's bookkeeping across attempts; assembleResult
// folds it into the JobResult.
type runAgg struct {
	elapsed         time.Duration
	recoveries      int
	downtime        time.Duration
	reprocessed     int64
	restoredEpoch   int64
	snapshots       int64
	faults          []FaultRecord
	rescales        int
	rescaleDowntime time.Duration
	rescaleMoved    int64
}

// Supervisor runs one job to completion through an AttemptExecutor.
type Supervisor struct {
	cfg SupervisorConfig
	clk clock.Clock

	// mu is the lifecycle's one lock: attempts report epochs and snapshots
	// from task goroutines (in process) or the coordinator's pump, Schedule
	// runs on any goroutine, and Run's goroutine ends attempts. drainAt is
	// when the running attempt was answered drain.
	mu      sync.Mutex
	led     epochLedger // guarded by mu
	drainAt time.Time   // guarded by mu

	// Everything below belongs to Run's goroutine.
	plan *dataflow.Plan
	dead map[int]bool
	agg  runAgg
	// failedAt and rescaledAt are the two downtime clocks: opened when an
	// outage begins, closed by the next attempt's Up. rescaled is the drain
	// the open rescale clock belongs to.
	failedAt   time.Time
	rescaledAt time.Time
	rescaled   *RescaleEvent
}

// NewSupervisor validates the initial placement and builds the supervisor
// with an empty checkpoint store.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("engine: no workers")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for i, w := range cfg.Workers {
		if w.ID == "" || seen[w.ID] || strings.Contains(w.ID, ".") {
			return nil, fmt.Errorf("%w: worker %d has ID %q (empty, repeated or dotted)", ErrWorkerID, i, w.ID)
		}
		seen[w.ID] = true
	}
	if err := validatePlan(cfg.Plan, cfg.Tasks, cfg.Workers, nil); err != nil {
		return nil, err
	}
	return &Supervisor{
		cfg:  cfg,
		clk:  cfg.Now.OrSystem(),
		led:  newEpochLedger(cfg.Tasks),
		plan: cfg.Plan,
		dead: make(map[int]bool),
	}, nil
}

func (s *Supervisor) emit(ev telemetry.Event) {
	if s.cfg.Emit != nil {
		s.cfg.Emit(ev)
	}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Run drives the job through exec until an attempt completes (the result),
// or a fault cannot be recovered, a plan is rejected or ctx ends (an error).
func (s *Supervisor) Run(ctx context.Context, exec AttemptExecutor) (*JobResult, error) {
	start := s.clk()
	s.emit(telemetry.Event{Kind: telemetry.EventJobStart, Attrs: map[string]any{
		"tasks":     len(s.cfg.Tasks),
		"workers":   len(s.cfg.Workers),
		"transport": s.cfg.Transport,
	}})
	for no := 1; ; no++ {
		s.mu.Lock()
		at := AttemptSpec{No: no, Tasks: s.led.tasks, Plan: s.plan, RestoreEpoch: s.led.restore, Dead: deadList(s.dead),
			Up: func() { s.attemptUp(no) }}
		s.mu.Unlock()
		end, err := exec.RunAttempt(ctx, at)
		if err != nil {
			return nil, err
		}
		s.agg.faults = append(s.agg.faults, end.Faults...)
		s.mu.Lock()
		ending, due := s.led.end(end.Fault != nil)
		s.agg.snapshots, s.agg.restoredEpoch = s.led.taken, s.led.restore
		drainAt := s.drainAt
		s.mu.Unlock()
		switch ending {
		case endFault:
			err = s.recover(no, at.Tasks, end)
		case endDrained:
			err = s.rescale(no, at.Tasks, end, due, drainAt)
		default:
			s.agg.elapsed = s.clk.Since(start)
			res := assembleResult(end.Reports, s.agg)
			s.emit(telemetry.Event{Kind: telemetry.EventJobComplete, Attempt: no, Attrs: map[string]any{
				"elapsed_ms":   res.Elapsed.Seconds() * 1e3,
				"recoveries":   res.Recoveries,
				"sink_records": res.SinkRecords,
				"snapshots":    res.SnapshotsTaken,
			}})
			return res, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// attemptUp closes whichever downtime clocks are open: downtime covers
// abort, re-placement and rebuild+restore, and ends as the tasks start.
func (s *Supervisor) attemptUp(no int) {
	if !s.failedAt.IsZero() {
		s.agg.downtime += s.clk.Since(s.failedAt)
		s.failedAt = time.Time{}
	}
	if !s.rescaledAt.IsZero() {
		d := s.clk.Since(s.rescaledAt)
		s.agg.rescaleDowntime += d
		s.rescaledAt = time.Time{}
		ev := s.rescaled
		s.rescaled = nil
		for _, c := range ev.Changes {
			s.emit(telemetry.Event{Kind: telemetry.EventRescaleComplete, Op: string(c.Op), Epoch: ev.Epoch, Attempt: no,
				Attrs: map[string]any{"from": c.From, "to": c.To, "downtime_ms": d.Seconds() * 1e3}})
		}
	}
}

// recover is the single fault branch: count the outage, re-place if a worker
// died (or the hook wants to), and account the work that restoring the
// newest complete epoch rolls back.
func (s *Supervisor) recover(no int, tasks []dataflow.TaskID, end AttemptEnd) error {
	ev := *end.Fault
	ev.Attempt = no
	for _, w := range end.NewDead {
		s.dead[w] = true
	}
	ev.DeadWorkers = deadList(s.dead)
	s.agg.recoveries++
	if s.failedAt.IsZero() {
		s.failedAt = end.At
	}
	s.logf("attempt %d failed (%v): %s", no, ev.Kind, end.Cause)
	s.emit(telemetry.Event{
		Kind: telemetry.EventRecoveryStart, Task: ev.Task.String(), Op: string(ev.Task.Op), Worker: ev.WorkerID,
		Epoch: ev.Epoch, Attempt: no, Attrs: map[string]any{"fault": ev.Kind.String(), "cause": end.Cause},
	})
	died := len(end.NewDead) > 0
	switch {
	case len(s.dead) == len(s.cfg.Workers):
		return fmt.Errorf("%w after attempt %d: %s", ErrAllWorkersDead, no, end.Cause)
	case died && s.cfg.OnFault == nil:
		return fmt.Errorf("engine: worker %d died and %w: %s", end.NewDead[0], ErrNoReplacementHook, end.Cause)
	case s.cfg.OnFault != nil:
		next, err := s.cfg.OnFault(ev)
		if err != nil {
			return fmt.Errorf("engine: re-placement after %v in attempt %d: %w", ev.Kind, no, err)
		}
		if next != nil || died {
			if err := validatePlan(next, tasks, s.cfg.Workers, s.dead); err != nil {
				return err
			}
			s.plan = next
		}
	}
	restore := s.agg.restoredEpoch
	s.agg.reprocessed += s.reprocessedSince(end.Reports, restore)
	for i := range s.agg.faults {
		f := &s.agg.faults[i]
		switch {
		case f.Kind == FaultKillWorker && s.dead[f.Worker],
			f.Kind == FaultCrashTask && ev.Kind == FaultCrashTask && f.Task == ev.Task:
			f.Recovered = true
		}
	}
	s.logf("recovery: restarting attempt %d from epoch %d on %d survivors", no+1, restore, len(s.cfg.Workers)-len(s.dead))
	s.emit(telemetry.Event{Kind: telemetry.EventRecoveryRestart, Epoch: restore, Attempt: no + 1,
		Attrs: map[string]any{"dead_workers": len(s.dead)}})
	return nil
}

// rescale is the single drained branch: every plan due at the newest
// complete epoch — at most one per operator — applies in this one drain.
// Each changed operator's snapshots are repartitioned at that epoch, the new
// task set is re-placed once, and the job redeploys once from it.
func (s *Supervisor) rescale(no int, tasks []dataflow.TaskID, end AttemptEnd, due []RescalePlan, drainAt time.Time) error {
	epoch := s.agg.restoredEpoch
	// Account the rolled-back work before the ledger forgets the old task set.
	reprocessed := s.reprocessedSince(end.Reports, epoch)
	ev := RescaleEvent{Parallelism: parallelism(tasks), Epoch: epoch, DeadWorkers: deadList(s.dead), Attempt: no}
	s.mu.Lock()
	changes, err := s.led.apply(due, s.cfg.KeyGroups)
	tasks = s.led.tasks
	s.mu.Unlock()
	if err != nil {
		return err
	}
	ev.Changes = changes
	for _, c := range changes {
		ev.Parallelism[c.Op] = c.To
		ev.MovedBytes += c.MovedBytes
	}
	var next *dataflow.Plan
	if s.cfg.OnRescale != nil {
		next, err = s.cfg.OnRescale(ev, s.plan)
	} else {
		next, err = keepSurvivorsPlan(s.plan, tasks, s.cfg.Workers, s.dead)
	}
	if err != nil {
		return fmt.Errorf("engine: re-placement for rescale at epoch %d: %w", epoch, err)
	}
	if err := validatePlan(next, tasks, s.cfg.Workers, s.dead); err != nil {
		return err
	}
	s.plan = next
	s.agg.reprocessed += reprocessed
	s.agg.rescales += len(ev.Changes)
	s.agg.rescaleMoved += ev.MovedBytes
	s.rescaledAt = drainAt
	s.rescaled = &ev
	s.logf("rescale: %v applied at epoch %d (%d state bytes moved); redeploying", ev, epoch, ev.MovedBytes)
	for _, c := range ev.Changes {
		s.emit(telemetry.Event{Kind: telemetry.EventRescaleStart, Op: string(c.Op), Epoch: epoch, Attempt: no,
			Attrs: map[string]any{"from": c.From, "to": c.To, "state_moved_bytes": c.MovedBytes}})
	}
	return nil
}

// Schedule queues a live parallelism change; it triggers at the first
// complete checkpoint epoch >= p.AtEpoch, sharing that drain with every
// other plan due then. Safe from any goroutine, before or during Run.
// Every refusal is ErrRescaleRefused. Forward-edge peers are its caller's to
// enforce; a source its caller let through fails the run at the drain
// (repartitionTaskSnapshots).
func (s *Supervisor) Schedule(p RescalePlan) error {
	if s.cfg.SnapshotInterval <= 0 {
		return rescaleRefused("engine: rescale needs checkpoints; set SnapshotInterval > 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case parallelism(s.led.tasks)[p.Op] == 0:
		return rescaleRefused("engine: rescale of unknown operator %q", p.Op)
	case p.Parallelism <= 0:
		return rescaleRefused("engine: rescale of %q to non-positive parallelism %d", p.Op, p.Parallelism)
	case p.Parallelism > s.cfg.KeyGroups:
		return rescaleRefused("engine: rescale of %q to %d exceeds %d key-groups", p.Op, p.Parallelism, s.cfg.KeyGroups)
	case p.AtEpoch < 0:
		return rescaleRefused("engine: rescale of %q at negative epoch %d", p.Op, p.AtEpoch)
	}
	s.led.schedule(p)
	return nil
}

// EpochStarted notes that attempt no injected an epoch's barrier. The first
// injection in the run is the epoch's checkpoint.start; replays after a
// restore and the other sources' injections are not.
func (s *Supervisor) EpochStarted(no int, epoch int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.led.start(epoch) {
		s.logf("epoch %d started", epoch)
		s.emit(telemetry.Event{Kind: telemetry.EventCheckpointStart, Epoch: epoch, Attempt: no})
	}
}

// RecordSnapshot stores one task's checkpoint contribution from attempt no.
// done is the epoch it completed (0 = none), which is that epoch's
// checkpoint.complete; drain, answered at most once per attempt, says a
// rescale is due at that epoch, so the executor must abort the attempt.
// Both executors call it, the local one from task goroutines; the events go
// out under the lock, in the order the ledger answers them.
func (s *Supervisor) RecordSnapshot(no int, snap *TaskSnapshot) (done int64, drain bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done, drain = s.led.snapshot(snap); done == 0 {
		return 0, false
	}
	if drain {
		s.drainAt = s.clk()
	}
	s.logf("checkpoint: epoch %d complete (%d snapshots)", done, s.led.taken)
	s.emit(telemetry.Event{Kind: telemetry.EventCheckpointComplete, Epoch: done, Attempt: no,
		Attrs: map[string]any{"snapshots": s.led.taken}})
	return done, drain
}

// EpochSnapshots returns every task's snapshot at the given epoch in task
// order (nil for epoch 0): the restore set an executor deploys an attempt
// with. Like RunAttempt, it runs on Run's goroutine.
func (s *Supervisor) EpochSnapshots(epoch int64) []*TaskSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.restoreSet(epoch)
}

// reprocessedSince counts the records the ended attempt's surviving tasks
// processed beyond the restore epoch — work the restore rolls back and the
// next attempt must redo — against each task's snapshot there (the ledger
// holds one for every task at the newest complete epoch; at epoch 0 there is
// none, and all of it is redone). Dead workers send no report, so their
// progress since their last snapshot is unknowable and uncounted.
func (s *Supervisor) reprocessedSince(reports []*WorkerReport, restore int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, rep := range reports {
		for t, ts := range rep.Tasks {
			var base int64
			if snap := s.led.snaps[t][restore]; snap != nil {
				base = snap.RecordsIn
			}
			total += max(0, ts.RecordsIn-base)
		}
	}
	return total
}

func deadList(dead map[int]bool) []int {
	out := make([]int, 0, len(dead))
	for w := range dead {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}

// parallelism counts each operator's tasks in a task set (task indices are
// dense, so the count is the operator's parallelism).
func parallelism(tasks []dataflow.TaskID) map[dataflow.OperatorID]int {
	par := make(map[dataflow.OperatorID]int)
	for _, t := range tasks {
		par[t.Op]++
	}
	return par
}

// rescaledTasks is tasks with op's indices cut or extended to newP.
func rescaledTasks(tasks []dataflow.TaskID, op dataflow.OperatorID, oldP, newP int) []dataflow.TaskID {
	out := make([]dataflow.TaskID, 0, len(tasks)-oldP+newP)
	for _, t := range tasks {
		if t.Op != op || t.Index < newP {
			out = append(out, t)
		}
	}
	for i := oldP; i < newP; i++ {
		out = append(out, dataflow.TaskID{Op: op, Index: i})
	}
	return out
}

// validatePlan rejects a placement that is missing, partial, names tasks
// outside the task set, uses an unknown or dead worker, or exceeds a
// worker's slots — so a broken re-placement fails the run loudly instead of
// deploying onto a corpse or being bounced by every worker in turn.
func validatePlan(plan *dataflow.Plan, tasks []dataflow.TaskID, workers []WorkerSpec, dead map[int]bool) error {
	if plan == nil {
		return fmt.Errorf("%w: no plan returned", ErrInvalidPlan)
	}
	if plan.Len() != len(tasks) {
		return fmt.Errorf("%w: %d assignments for %d tasks", ErrInvalidPlan, plan.Len(), len(tasks))
	}
	slotUse := make([]int, len(workers))
	for _, t := range tasks {
		w, ok := plan.Worker(t)
		switch {
		case !ok:
			return fmt.Errorf("%w: task %v unassigned", ErrInvalidPlan, t)
		case w < 0 || w >= len(workers):
			return fmt.Errorf("%w: task %v on unknown worker %d", ErrInvalidPlan, t, w)
		case dead[w]:
			return fmt.Errorf("%w: task %v on dead worker %d", ErrInvalidPlan, t, w)
		}
		slotUse[w]++
	}
	for w, used := range slotUse {
		if used > workers[w].Slots {
			return fmt.Errorf("%w: worker %s overloaded (%d tasks > %d slots)", ErrInvalidPlan, workers[w].ID, used, workers[w].Slots)
		}
	}
	return nil
}

// keepSurvivorsPlan is the default rescale placement: every surviving task
// stays where it is and new tasks pack onto the lowest-index live workers
// with free slots — deterministic, so no search is needed.
func keepSurvivorsPlan(prev *dataflow.Plan, tasks []dataflow.TaskID, workers []WorkerSpec, dead map[int]bool) (*dataflow.Plan, error) {
	plan := dataflow.NewPlanSized(len(tasks))
	slotUse := make([]int, len(workers))
	var fresh []dataflow.TaskID
	for _, t := range tasks {
		if w, ok := prev.Worker(t); ok {
			plan.Assign(t, w)
			if w >= 0 && w < len(slotUse) {
				slotUse[w]++
			}
			continue
		}
		fresh = append(fresh, t)
	}
	for _, t := range fresh {
		placed := false
		for w := range workers {
			if !dead[w] && slotUse[w] < workers[w].Slots {
				plan.Assign(t, w)
				slotUse[w]++
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("no free slot for new task %v (need a rescale re-placement hook or more capacity)", t)
		}
	}
	return plan, nil
}

// assembleResult folds the final attempt's worker reports and the run
// aggregate into a JobResult — the only way a figure reaches one, in both
// executors. The exchange.*, net.*, engine.fuse.* and saturation series
// arrive named in the reports and merge by name, so a transport exports
// exactly the families its attempts declared; per-task series, keyed-state
// sizes included, derive from each report's TaskStats.
func assembleResult(reports []*WorkerReport, agg runAgg) *JobResult {
	res := &JobResult{
		Elapsed: agg.elapsed,
		Tasks:   make(map[dataflow.TaskID]TaskStats),
		Metrics: metrics.NewRegistry(),
	}
	hists := make(map[string]telemetry.HistogramSnapshot)
	var stateBytes, stateKeys, stateNamespaces int64
	for _, rep := range reports {
		for n, v := range rep.Metrics.Counters {
			res.Metrics.Counter(n).Inc(v)
		}
		for n, d := range rep.Metrics.Times {
			res.Metrics.Time(n).Add(d)
		}
		for n, v := range rep.Metrics.Gauges {
			res.Metrics.Gauge(n).Set(v)
		}
		for n, h := range rep.Hists {
			// A snapshot that does not fit the layout (ErrHistogramLayout) is
			// dropped; losing a histogram still leaves every scalar intact.
			merged := hists[n]
			_ = merged.Merge(h)
			hists[n] = merged
		}
		for t, ts := range rep.Tasks {
			// Rates and useful fractions are undefined for a zero elapsed
			// time (possible only under an injected frozen clock).
			if el := agg.elapsed.Seconds(); el > 0 {
				ts.UsefulFraction = min(1, ts.BusyTime.Seconds()/el)
				ts.ObservedInRate = float64(ts.RecordsIn) / el
				ts.ObservedOutRate = float64(ts.RecordsOut) / el
			}
			res.Tasks[t] = ts
			name := func(metric string) string {
				return metrics.TaskMetricName(string(t.Op), t.Index, metric)
			}
			res.Metrics.Counter(name("records_in")).Inc(ts.RecordsIn)
			res.Metrics.Counter(name("records_out")).Inc(ts.RecordsOut)
			res.Metrics.Counter(name("bytes_out")).Inc(ts.BytesOut)
			res.Metrics.Time(name("busy_seconds")).Add(ts.BusyTime)
			res.Metrics.Time(name("backpressure_seconds")).Add(ts.BackpressureT)
			res.Metrics.Gauge(name("useful_fraction")).Set(ts.UsefulFraction)
			if ts.Stateful {
				res.Metrics.Gauge(name("state_bytes")).Set(float64(ts.StateBytes))
				res.Metrics.Gauge(name("state_keys")).Set(float64(ts.StateKeys))
				stateBytes += ts.StateBytes
				stateKeys += ts.StateKeys
				stateNamespaces++
			}
			if ts.Sink {
				res.SinkRecords += ts.RecordsIn
			}
			if ts.Source {
				res.SourceRecords += ts.RecordsOut
			}
		}
	}
	if wait, ok := hists[creditWaitSeries]; ok {
		exportCreditWait(res.Metrics, wait)
	}
	// Keyed-state totals appear only for stateful jobs, mirroring the live
	// state.* gauges (final values when the attempt reported).
	if stateNamespaces > 0 {
		res.Metrics.Gauge("state.total_bytes").Set(float64(stateBytes))
		res.Metrics.Gauge("state.total_keys").Set(float64(stateKeys))
		res.Metrics.Gauge("state.namespaces").Set(float64(stateNamespaces))
	}
	res.Faults = agg.faults
	res.Recoveries = agg.recoveries
	res.Downtime = agg.downtime
	res.RecordsReprocessed = agg.reprocessed
	res.SnapshotsTaken = agg.snapshots
	res.RestoredEpoch = agg.restoredEpoch
	res.Rescales = agg.rescales
	res.RescaleDowntime = agg.rescaleDowntime
	res.RescaleMovedBytes = agg.rescaleMoved
	res.Metrics.Counter("job.recoveries").Inc(int64(res.Recoveries))
	res.Metrics.Gauge("job.downtime_seconds").Set(res.Downtime.Seconds())
	res.Metrics.Counter("job.records_reprocessed").Inc(res.RecordsReprocessed)
	res.Metrics.Counter("job.lost_records").Inc(res.LostRecords)
	res.Metrics.Counter("job.snapshots").Inc(res.SnapshotsTaken)
	res.Metrics.Gauge("job.restored_epoch").Set(float64(res.RestoredEpoch))
	// Rescale telemetry appears only when a rescale actually ran, keeping
	// the metric surface of ordinary jobs — goldens included — unchanged.
	if res.Rescales > 0 {
		res.Metrics.Counter("job.rescales").Inc(int64(res.Rescales))
		res.Metrics.Gauge("job.rescale_downtime_seconds").Set(res.RescaleDowntime.Seconds())
		res.Metrics.Counter("job.rescale_moved_bytes").Inc(res.RescaleMovedBytes)
	}
	return res
}
