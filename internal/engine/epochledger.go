package engine

import (
	"fmt"
	"slices"

	"capsys/internal/dataflow"
)

// The epoch ledger: a job's checkpoint epochs and the rescales due at them,
// across every attempt of one run. This file is the lifecycle's state and its
// transitions, and nothing else — no goroutines, no I/O, no clock; the
// Supervisor holds the one lock around it, runs the hooks, keeps the clocks
// and emits the events — so it can be checked exhaustively
// (TestEpochLedgerProtocol).
//
// Events: an epoch's barrier injected (start), one task's snapshot, a plan
// scheduled, and the running attempt's end — a fault, or none. Answers:
// checkpoint.start, once per epoch in the run; checkpoint.complete for e, when
// the last current task snapshots e; drain, at most once per attempt, when an
// epoch completes with a plan due; at the attempt's end, how it ended — done,
// faulted (a fault wins over a drain it raced), or drained — and the epoch the
// next attempt restores or resumes from, always the newest complete one; for
// a drain, the plans due there; and the restore set.
//
// Every task snapshots its epochs in order from its attempt's restore epoch,
// and each source injects them in order, so epochs start and complete in
// order. The ledger is durable checkpoint storage: snapshots survive worker
// loss. It keeps the newest complete epoch whole and every partial epoch
// beyond it, which a recovery's replay overwrites; a rescale discards those
// instead, since the old and new task sets must never mix within one epoch.

// attemptEnding is how an attempt ended, as the ledger answers it.
type attemptEnding uint8

const (
	endDone    attemptEnding = iota // every task finished: the run's result
	endFault                        // restore from the newest complete epoch
	endDrained                      // apply the due plans, resume from there
)

// epochLedger is one run's epoch lifecycle.
type epochLedger struct {
	tasks    []dataflow.TaskID // the running task set, and the completion quorum
	snaps    map[dataflow.TaskID]map[int64]*TaskSnapshot
	newest   map[dataflow.TaskID]int64 // the newest epoch each task ever snapshotted
	taken    int64                     // distinct (task, epoch) snapshots
	started  int64                     // the newest epoch whose barrier was injected
	complete int64                     // the newest epoch every task snapshotted; 0 = none
	restore  int64                     // the epoch the running attempt restored from
	pending  []RescalePlan             // scheduled and not yet applied, in scheduling order
	drained  bool                      // the running attempt was answered drain
}

func newEpochLedger(tasks []dataflow.TaskID) epochLedger {
	return epochLedger{
		tasks:  tasks,
		snaps:  make(map[dataflow.TaskID]map[int64]*TaskSnapshot),
		newest: make(map[dataflow.TaskID]int64),
	}
}

// start notes epoch e's barrier injected and reports whether it is the
// epoch's first injection in the run (its checkpoint.start); replays after a
// restore and the other sources' injections are not.
func (l *epochLedger) start(e int64) bool {
	if e <= l.started {
		return false
	}
	l.started = e
	return true
}

// snapshot stores one task's snapshot, overwriting a replayed one. done is
// the epoch it completed (0 = none); drain says the running attempt must end
// for a rescale due at done — answered once per attempt.
func (l *epochLedger) snapshot(s *TaskSnapshot) (done int64, drain bool) {
	if s.Epoch > l.newest[s.Task] {
		l.newest[s.Task] = s.Epoch
		l.taken++
	}
	if s.Epoch < l.complete {
		// A replay of an epoch pruned already: a partial epoch kept across
		// a recovery let a later one complete before this task caught up.
		return 0, false
	}
	if l.snaps[s.Task] == nil {
		l.snaps[s.Task] = make(map[int64]*TaskSnapshot)
	}
	l.snaps[s.Task][s.Epoch] = s
	if s.Epoch == l.complete || slices.ContainsFunc(l.tasks, func(t dataflow.TaskID) bool { return l.snaps[t][s.Epoch] == nil }) {
		return 0, false
	}
	l.complete = s.Epoch
	for _, byEpoch := range l.snaps {
		for e := range byEpoch {
			if e < l.complete {
				delete(byEpoch, e)
			}
		}
	}
	drain = !l.drained && len(l.due()) > 0
	l.drained = l.drained || drain
	return l.complete, drain
}

// schedule queues a validated plan.
func (l *epochLedger) schedule(p RescalePlan) { l.pending = append(l.pending, p) }

// due returns the pending plans due at the newest complete epoch, the
// earliest-scheduled one of each operator, without removing them: a plan
// stays pending until applied, so a fault racing the drain re-triggers the
// whole set at the next complete epoch, and an operator's later plans wait
// for the next drain.
func (l *epochLedger) due() []RescalePlan {
	var due []RescalePlan
	for _, p := range l.pending {
		if l.complete >= p.AtEpoch && !slices.ContainsFunc(due, func(d RescalePlan) bool { return d.Op == p.Op }) {
			due = append(due, p)
		}
	}
	return due
}

// end ends the running attempt. The next one restores or resumes from the
// newest complete epoch; with a drain, due lists the plans due there — never
// none, since a plan leaves the queue only when applied and one due at the
// drain's epoch is due at every later one.
func (l *epochLedger) end(fault bool) (ending attemptEnding, due []RescalePlan) {
	drained := l.drained
	l.drained = false
	switch {
	case fault:
		l.restore = l.complete
		return endFault, nil
	case drained:
		l.restore = l.complete
		return endDrained, l.due()
	}
	return endDone, nil
}

// apply carries out a drain's due plans at the resume epoch: every epoch
// beyond it is discarded (partial: the drain aborted the attempt
// mid-stream), each changed operator's snapshots there are split or merged
// along key-group boundaries, removed tasks' histories are dropped, and the
// task set becomes the rescaled one. The plans leave the queue. Each change
// counts the stored state bytes whose owning task changed.
func (l *epochLedger) apply(due []RescalePlan, keyGroups int) ([]RescaleChange, error) {
	epoch := l.restore
	for _, byEpoch := range l.snaps {
		for e := range byEpoch {
			if e > epoch {
				delete(byEpoch, e)
			}
		}
	}
	par := parallelism(l.tasks)
	changes := make([]RescaleChange, 0, len(due))
	for _, p := range due {
		c := RescaleChange{Op: p.Op, From: par[p.Op], To: p.Parallelism}
		old := make([]*TaskSnapshot, c.From)
		for i := range old {
			old[i] = l.snaps[dataflow.TaskID{Op: p.Op, Index: i}][epoch]
		}
		repartitioned, moved, err := repartitionTaskSnapshots(old, c.From, c.To, keyGroups)
		if err != nil {
			return nil, fmt.Errorf("engine: rescale %q %d→%d: %w", p.Op, c.From, c.To, err)
		}
		for i := c.To; i < c.From; i++ {
			delete(l.snaps, dataflow.TaskID{Op: p.Op, Index: i})
		}
		for i, s := range repartitioned {
			s.Task = dataflow.TaskID{Op: p.Op, Index: i}
			if l.snaps[s.Task] == nil {
				l.snaps[s.Task] = make(map[int64]*TaskSnapshot)
			}
			l.snaps[s.Task][epoch] = s
		}
		l.tasks = rescaledTasks(l.tasks, p.Op, c.From, c.To)
		c.MovedBytes = moved
		changes = append(changes, c)
		i := slices.Index(l.pending, p)
		l.pending = slices.Delete(l.pending, i, i+1)
	}
	return changes, nil
}

// restoreSet returns every current task's snapshot at epoch in task order
// (none at epoch 0): what an attempt restoring that epoch deploys with.
func (l *epochLedger) restoreSet(epoch int64) []*TaskSnapshot {
	var out []*TaskSnapshot
	for _, t := range l.tasks {
		if s := l.snaps[t][epoch]; s != nil {
			out = append(out, s)
		}
	}
	return out
}
