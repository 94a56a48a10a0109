package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
// run aggregate, job/recovery/rescale trace events and result assembly. An
// AttemptExecutor owns everything that is mechanism: how tasks are deployed
// (goroutines here, a two-phase TCP deploy in internal/controller), how a
// fault is detected, and how the topology is represented.

// AttemptExecutor deploys and runs single attempts of a job on behalf of a
// Supervisor. Both methods are called from Supervisor.Run's goroutine only.
type AttemptExecutor interface {
	// RunAttempt deploys at.Plan restored from at.RestoreEpoch and blocks
	// until the attempt ends: every task finished, a fault aborted it, or it
	// drained because RecordSnapshot reported a rescale due. By the time it
	// returns no task of the attempt is running. A non-nil error is
	// unrecoverable and fails the run.
	RunAttempt(ctx context.Context, at AttemptSpec) (AttemptEnd, error)
	// SetParallelism rewrites the executor's topology so that later attempts
	// run op at the given parallelism. Only the executor knows how the
	// topology is represented; the supervisor has already rewritten the
	// snapshot store and derives the new task set itself.
	SetParallelism(op dataflow.OperatorID, parallelism int) error
}

// AttemptSpec is one attempt as the supervisor wants it run.
type AttemptSpec struct {
	// No is the 1-based attempt number.
	No int
	// Tasks is the job's current task set; Plan assigns exactly these tasks
	// to workers outside Dead, within every worker's slot capacity.
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
	// OnRescale re-places the rescaled task set given the previous plan;
	// nil keeps surviving tasks in place and packs new ones onto free slots.
	OnRescale func(RescaleEvent, *dataflow.Plan) (*dataflow.Plan, error)
	// Emit receives lifecycle trace events, Logf progress lines (both may
	// be nil); Now is the clock (nil = system).
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
	lost            int64
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
	exec AttemptExecutor
	plan *dataflow.Plan
	dead map[int]bool
	agg  runAgg
	// failedAt and rescaledAt are the two downtime clocks: opened when an
	// outage begins, closed by the next attempt's Up. rescaled is the
	// rescale the open rescale clock belongs to.
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
	s.exec = exec
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
		for _, rep := range end.Reports {
			s.agg.lost += rep.Lost
		}
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
				"failed":       res.Failed,
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
		s.emit(telemetry.Event{Kind: telemetry.EventRescaleComplete, Op: string(ev.Op), Epoch: ev.Epoch, Attempt: no,
			Attrs: map[string]any{"from": ev.OldParallelism, "to": ev.NewParallelism, "downtime_ms": d.Seconds() * 1e3}})
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

// rescale is the single drained branch: repartition the operator's
// snapshots at the resume epoch, have the executor rewrite its topology,
// re-place the new task set, and redeploy from that epoch.
func (s *Supervisor) rescale(no int, end AttemptEnd) error {
	// A later epoch may have completed (pruning the trigger epoch's
	// snapshots) between the trigger and the abort landing; the newest
	// complete epoch is always fully retained, so resume from it.
	epoch := end.DrainEpoch
	if lc := s.store.lastCompleteEpoch(); lc > epoch {
		epoch = lc
	}
	p := s.dueRescale(epoch)
	if p == nil {
		return fmt.Errorf("engine: rescale drained at epoch %d but no plan is pending", epoch)
	}
	// Account the rolled-back work before the store forgets the old task set.
	reprocessed := s.reprocessedSince(end.Reports, epoch)
	oldP := parallelismOf(s.tasks, p.Op)
	moved, err := s.store.repartition(p.Op, oldP, p.Parallelism, s.cfg.KeyGroups, epoch)
	if err != nil {
		return err
	}
	if err := s.exec.SetParallelism(p.Op, p.Parallelism); err != nil {
		return fmt.Errorf("engine: rescale %q: %w", p.Op, err)
	}
	tasks := rescaledTasks(s.tasks, p.Op, oldP, p.Parallelism)
	ev := RescaleEvent{
		Op:             p.Op,
		OldParallelism: oldP,
		NewParallelism: p.Parallelism,
		Epoch:          epoch,
		MovedBytes:     moved,
		DeadWorkers:    deadList(s.dead),
		Attempt:        no,
	}
	var next *dataflow.Plan
	if s.cfg.OnRescale != nil {
		next, err = s.cfg.OnRescale(ev, s.plan)
	} else {
		next, err = keepSurvivorsPlan(s.plan, tasks, s.cfg.Workers, s.dead)
	}
	if err != nil {
		return fmt.Errorf("engine: re-placement for rescale of %q: %w", p.Op, err)
	}
	if err := validatePlan(next, tasks, s.cfg.Workers, s.dead); err != nil {
		return err
	}
	s.mu.Lock()
	s.tasks = tasks
	for i := range s.pending {
		if s.pending[i] == *p {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.plan = next
	s.agg.reprocessed += reprocessed
	s.agg.restoredEpoch = epoch
	s.agg.rescales++
	s.agg.rescaleMoved += moved
	s.rescaledAt = end.At
	s.rescaled = &ev
	s.logf("rescale: %q %d→%d applied at epoch %d (%d state bytes moved); redeploying", p.Op, oldP, p.Parallelism, epoch, moved)
	s.emit(telemetry.Event{Kind: telemetry.EventRescaleStart, Op: string(p.Op), Epoch: epoch, Attempt: no,
		Attrs: map[string]any{"from": oldP, "to": p.Parallelism, "state_moved_bytes": moved}})
	return nil
}

// Schedule queues a live parallelism change; it triggers at the first
// complete checkpoint epoch >= p.AtEpoch. Safe from any goroutine, before or
// during Run. Topology rules only the executor can check (sources, Forward
// peers) are its caller's to enforce.
func (s *Supervisor) Schedule(p RescalePlan) error {
	if s.cfg.SnapshotInterval <= 0 {
		return fmt.Errorf("engine: rescale needs checkpoints; set SnapshotInterval > 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case parallelismOf(s.tasks, p.Op) == 0:
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

// dueRescale returns the first pending rescale due at the given complete
// epoch without removing it: the plan stays pending until applied, so a
// fault racing the drain simply re-triggers it at the next complete epoch.
func (s *Supervisor) dueRescale(epoch int64) *RescalePlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.pending {
		if epoch >= s.pending[i].AtEpoch {
			p := s.pending[i]
			return &p
		}
	}
	return nil
}

// RecordSnapshot stores one task's checkpoint contribution on behalf of a
// remote executor. done is the epoch it completed (0 = none); drain reports
// that a rescale is due at that epoch, so the executor must abort the
// attempt and return DrainEpoch = done.
func (s *Supervisor) RecordSnapshot(snap *TaskSnapshot) (done int64, drain bool) {
	done = s.store.record(snap)
	return done, done > 0 && s.dueRescale(done) != nil
}

// SnapshotsTaken counts distinct (task, epoch) snapshots recorded so far.
func (s *Supervisor) SnapshotsTaken() int64 { return s.store.snapshotsTaken() }

// EpochSnapshots returns every task's snapshot at the given epoch in task
// order (nil for epoch 0), for an executor to ship with a deploy. Like
// RunAttempt, it runs on Run's goroutine.
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

// parallelismOf counts op's tasks (task indices are dense, so the count is
// the parallelism).
func parallelismOf(tasks []dataflow.TaskID, op dataflow.OperatorID) int {
	n := 0
	for _, t := range tasks {
		if t.Op == op {
			n++
		}
	}
	return n
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
// aggregate into a JobResult. The exchange.* and net.* series arrive named in
// the reports and merge by name, so a transport exports exactly the families
// its attempts declared.
func assembleResult(reports []*WorkerReport, agg runAgg) *JobResult {
	res := &JobResult{
		Elapsed: agg.elapsed,
		Tasks:   make(map[dataflow.TaskID]TaskStats),
		Metrics: metrics.NewRegistry(),
	}
	hists := make(map[string]telemetry.HistogramSnapshot)
	for _, rep := range reports {
		for n, v := range rep.Metrics.Counters {
			res.Metrics.Counter(n).Inc(v) //capslint:allow metricnames relayed under the literal name the attempt declared the cell with
		}
		for n, d := range rep.Metrics.Times {
			res.Metrics.Time(n).Add(d) //capslint:allow metricnames relayed under the literal name the attempt declared the cell with
		}
		for n, h := range rep.Hists {
			// Merge failure only occurs across mismatched bucket layouts, which
			// one binary's workers cannot produce; losing a histogram would
			// still leave every scalar intact.
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
			res.Metrics.Counter(name("records_in")).Inc(ts.RecordsIn)            //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			res.Metrics.Counter(name("records_out")).Inc(ts.RecordsOut)          //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			res.Metrics.Counter(name("bytes_out")).Inc(ts.BytesOut)              //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			res.Metrics.Time(name("busy_seconds")).Add(ts.BusyTime)              //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			res.Metrics.Time(name("backpressure_seconds")).Add(ts.BackpressureT) //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			res.Metrics.Gauge(name("useful_fraction")).Set(ts.UsefulFraction)    //capslint:allow metricnames per-task series built by metrics.TaskMetricName, which canonicalizes
			if ts.Sink {
				res.SinkRecords += ts.RecordsIn
			}
			if ts.Source {
				res.SourceRecords += ts.RecordsOut
			}
			if ts.Dead {
				res.Failed = true
			}
		}
	}
	if wait, ok := hists[creditWaitSeries]; ok {
		exportCreditWait(res.Metrics, wait)
	}
	res.Faults = agg.faults
	res.Recoveries = agg.recoveries
	res.Downtime = agg.downtime
	res.RecordsReprocessed = agg.reprocessed
	res.LostRecords = agg.lost
	res.SnapshotsTaken = agg.snapshots
	res.RestoredEpoch = agg.restoredEpoch
	res.Rescales = agg.rescales
	res.RescaleDowntime = agg.rescaleDowntime
	res.RescaleMovedBytes = agg.rescaleMoved
	if res.Failed {
		// Unrecovered faults leave their tasks down from the fault until
		// the end of the run.
		first := agg.elapsed
		for _, f := range res.Faults {
			if f.Kind != FaultStallTask && !f.Recovered && f.At < first {
				first = f.At
			}
		}
		res.Downtime += agg.elapsed - first
	}
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
