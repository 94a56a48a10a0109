package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// The Supervisor owns everything that is policy — attempt numbering, the
// dead set, the pending-rescale queue, "faults win over rescales",
// restore-epoch selection, reprocessed accounting, the two downtime clocks,
// snapshot repartition, plan validation, the default rescale placement, the
// run aggregate, job/checkpoint/recovery/rescale trace events and result
// assembly. An AttemptExecutor owns everything that is mechanism: how tasks
// are deployed (goroutines here, a two-phase TCP deploy in
// internal/controller) and how a fault is detected. The supervisor's task set
// is the one statement of the running topology: an executor derives an
// attempt's graph from AttemptSpec.Tasks.

// AttemptExecutor deploys and runs single attempts of a job on behalf of a
// Supervisor. RunAttempt is called from Supervisor.Run's goroutine only.
type AttemptExecutor interface {
	// RunAttempt deploys at.Plan restored from at.RestoreEpoch and blocks
	// until the attempt ends: every task finished, a fault aborted it, or it
	// drained because RecordSnapshot reported a rescale due. By the time it
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

// AttemptEnd describes how an attempt ended. With neither Fault nor
// DrainEpoch set the attempt ran to completion and Reports are final.
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
	// DrainEpoch is the complete epoch at which the attempt drained for a
	// pending rescale (0 = it did not).
	DrainEpoch int64
	// At is when the outage — fault or drain — began.
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
)

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
	// arrives from task goroutines in process); Now is the clock (nil =
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
	cfg   SupervisorConfig
	clk   clock.Clock
	store *checkpointCoordinator

	// mu guards tasks and pending: Schedule and dueRescale are called from
	// arbitrary goroutines while Run's goroutine rewrites both on a rescale.
	mu      sync.Mutex
	tasks   []dataflow.TaskID
	pending []RescalePlan

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
		cfg:   cfg,
		clk:   cfg.Now.OrSystem(),
		store: newCheckpointCoordinator(len(cfg.Tasks)),
		tasks: cfg.Tasks,
		plan:  cfg.Plan,
		dead:  make(map[int]bool),
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
		"tasks":     len(s.tasks),
		"workers":   len(s.cfg.Workers),
		"transport": s.cfg.Transport,
	}})
	for no := 1; ; no++ {
		end, err := exec.RunAttempt(ctx, AttemptSpec{
			No:           no,
			Tasks:        s.tasks,
			Plan:         s.plan,
			RestoreEpoch: s.agg.restoredEpoch,
			Dead:         deadList(s.dead),
			Up:           func() { s.attemptUp(no) },
		})
		if err != nil {
			return nil, err
		}
		s.agg.faults = append(s.agg.faults, end.Faults...)
		switch {
		case end.Fault != nil:
			// Faults win over rescales: a drain that raced a fault is
			// dropped, its rescale stays pending and re-triggers at the next
			// complete epoch of the recovered deployment.
			err = s.recover(no, end)
		case end.DrainEpoch > 0:
			err = s.rescale(no, end)
		default:
			s.agg.elapsed = s.clk.Since(start)
			s.agg.snapshots = s.store.snapshotsTaken()
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
// died (or the hook wants to), pick the newest complete epoch, and account
// the work that restore rolls back.
func (s *Supervisor) recover(no int, end AttemptEnd) error {
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
			if err := validatePlan(next, s.tasks, s.cfg.Workers, s.dead); err != nil {
				return err
			}
			s.plan = next
		}
	}
	restore := s.store.lastCompleteEpoch()
	s.agg.reprocessed += s.reprocessedSince(end.Reports, restore)
	s.agg.restoredEpoch = restore
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

// rescale is the single drained branch: every plan due at the drain epoch —
// at most one per operator — applies in this one drain. Each changed
// operator's snapshots are repartitioned at the resume epoch, the new task set
// is re-placed once, and the job redeploys once from that epoch.
func (s *Supervisor) rescale(no int, end AttemptEnd) error {
	// A later epoch may have completed (pruning the trigger epoch's
	// snapshots) between the trigger and the abort landing; the newest
	// complete epoch is always fully retained, so resume from it.
	epoch := end.DrainEpoch
	if lc := s.store.lastCompleteEpoch(); lc > epoch {
		epoch = lc
	}
	due := s.dueRescales(epoch)
	if len(due) == 0 {
		return fmt.Errorf("engine: rescale drained at epoch %d but no plan is pending", epoch)
	}
	// Account the rolled-back work before the store forgets the old task set.
	reprocessed := s.reprocessedSince(end.Reports, epoch)
	ev := RescaleEvent{Parallelism: parallelism(s.tasks), Epoch: epoch, DeadWorkers: deadList(s.dead), Attempt: no}
	tasks := s.tasks
	for _, p := range due {
		c := RescaleChange{Op: p.Op, From: ev.Parallelism[p.Op], To: p.Parallelism}
		var err error
		if c.MovedBytes, err = s.store.repartition(p.Op, c.From, c.To, s.cfg.KeyGroups, epoch); err != nil {
			return err
		}
		tasks = rescaledTasks(tasks, p.Op, c.From, c.To)
		ev.Parallelism[p.Op] = c.To
		ev.Changes = append(ev.Changes, c)
		ev.MovedBytes += c.MovedBytes
	}
	var next *dataflow.Plan
	var err error
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
	s.mu.Lock()
	s.tasks = tasks
	for _, p := range due {
		i := slices.Index(s.pending, p)
		s.pending = slices.Delete(s.pending, i, i+1)
	}
	s.mu.Unlock()
	s.plan = next
	s.agg.reprocessed += reprocessed
	s.agg.restoredEpoch = epoch
	s.agg.rescales += len(ev.Changes)
	s.agg.rescaleMoved += ev.MovedBytes
	s.rescaledAt = end.At
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
// Forward-edge peers are its caller's to enforce; a source its caller let
// through fails the run at the drain (repartitionTaskSnapshots).
func (s *Supervisor) Schedule(p RescalePlan) error {
	if s.cfg.SnapshotInterval <= 0 {
		return fmt.Errorf("engine: rescale needs checkpoints; set SnapshotInterval > 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case parallelism(s.tasks)[p.Op] == 0:
		return fmt.Errorf("engine: rescale of unknown operator %q", p.Op)
	case p.Parallelism <= 0:
		return fmt.Errorf("engine: rescale of %q to non-positive parallelism %d", p.Op, p.Parallelism)
	case p.Parallelism > s.cfg.KeyGroups:
		return fmt.Errorf("engine: rescale of %q to %d exceeds %d key-groups", p.Op, p.Parallelism, s.cfg.KeyGroups)
	case p.AtEpoch < 0:
		return fmt.Errorf("engine: rescale of %q at negative epoch %d", p.Op, p.AtEpoch)
	}
	s.pending = append(s.pending, p)
	return nil
}

// dueRescales returns the pending plans due at the given complete epoch, the
// earliest-scheduled one of each operator, without removing them: a plan
// stays pending until applied, so a fault racing the drain simply re-triggers
// the whole set at the next complete epoch, and an operator's later plans
// wait for the next drain.
func (s *Supervisor) dueRescales(epoch int64) []RescalePlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	var due []RescalePlan
	for _, p := range s.pending {
		if epoch >= p.AtEpoch && !slices.ContainsFunc(due, func(d RescalePlan) bool { return d.Op == p.Op }) {
			due = append(due, p)
		}
	}
	return due
}

// EpochStarted notes that attempt no injected an epoch's first barrier. The
// first injection in the run is the epoch's checkpoint.start; replays after
// a restore and the other sources' injections are not.
func (s *Supervisor) EpochStarted(no int, epoch int64) {
	if !s.store.noteStarted(epoch) {
		return
	}
	s.logf("epoch %d started", epoch)
	s.emit(telemetry.Event{Kind: telemetry.EventCheckpointStart, Epoch: epoch, Attempt: no})
}

// RecordSnapshot stores one task's checkpoint contribution from attempt no.
// done is the epoch it completed (0 = none), which is that epoch's
// checkpoint.complete; drain reports that a rescale is due at that epoch, so
// the executor must abort the attempt and return DrainEpoch = done. Both
// executors call it, the local one from task goroutines.
func (s *Supervisor) RecordSnapshot(no int, snap *TaskSnapshot) (done int64, drain bool) {
	done, taken := s.store.record(snap)
	if done == 0 {
		return 0, false
	}
	s.logf("checkpoint: epoch %d complete (%d snapshots)", done, taken)
	s.emit(telemetry.Event{Kind: telemetry.EventCheckpointComplete, Epoch: done, Attempt: no,
		Attrs: map[string]any{"snapshots": taken}})
	return done, len(s.dueRescales(done)) > 0
}

// EpochSnapshots returns every task's snapshot at the given epoch in task
// order (nil for epoch 0): the restore set an executor deploys an attempt
// with. Like RunAttempt, it runs on Run's goroutine.
func (s *Supervisor) EpochSnapshots(epoch int64) []*TaskSnapshot {
	var out []*TaskSnapshot
	for _, t := range s.tasks {
		if snap := s.store.snapshotFor(t, epoch); snap != nil {
			out = append(out, snap)
		}
	}
	return out
}

// reprocessedSince counts the records the ended attempt's surviving tasks
// processed beyond the restore epoch — work the restore rolls back and the
// next attempt must redo. A task without a snapshot at the restore epoch is
// measured against the snapshot the attempt itself started from. Dead
// workers send no report, so their progress since their last snapshot is
// unknowable and uncounted.
func (s *Supervisor) reprocessedSince(reports []*WorkerReport, restore int64) int64 {
	var total int64
	for _, rep := range reports {
		for t, ts := range rep.Tasks {
			snap := s.store.snapshotFor(t, restore)
			if snap == nil {
				snap = s.store.snapshotFor(t, s.agg.restoredEpoch)
			}
			base := int64(0)
			if snap != nil {
				base = snap.RecordsIn
			}
			if d := ts.RecordsIn - base; d > 0 {
				total += d
			}
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
