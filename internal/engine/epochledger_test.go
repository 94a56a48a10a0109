package engine

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"testing"

	"capsys/internal/dataflow"
)

// TestEpochLedgerProtocol checks the epoch lifecycle exhaustively: every
// interleaving of one run of a job with a source operator and one rescalable
// operator, each at parallelism 1 or 2, over up to 3 epochs, with up to 2
// plans scheduled for the rescalable operator (to parallelism 1 or 2, due at
// epoch 0, 1 or 2). Each step drives the real epochLedger of epochledger.go;
// what the Supervisor and the executors do around it is modelled here. The
// events are:
//
//   - a source injects its next epoch: the ledger's start, then the source's
//     snapshot, which it takes as it injects;
//   - an operator task snapshots its next epoch, once every source has (it
//     aligns their barriers);
//   - a plan is scheduled;
//   - the attempt ends with a fault, at any point, the drain answer's race
//     included;
//   - the attempt ends without one: it drained if a drain was answered, and
//     otherwise the run is done.
//
// Snapshots keep arriving between a drain answer and the attempt's end, as
// the coordinator's abort loop and in-process tasks racing the abort deliver
// them. Every reachable state and step is checked for:
//
//  1. Restore: every attempt restores the newest complete epoch, so restore
//     epochs are monotone, and never an incomplete one.
//  2. Restore set and store: an attempt's restore set is exactly one snapshot
//     per current task at the restore epoch; the completion quorum is the
//     task count, after every rescale too; the store holds, for every
//     current task, exactly the epochs it recorded from the newest complete
//     one on (a recovery keeps the partial epochs beyond it, a rescale
//     discards them), and nothing of a removed task.
//  3. Plans: a plan leaves the queue only when a drain applies it, so each
//     is applied in exactly one drain and one that a fault races stays
//     pending; a drain applies the earliest-scheduled plan due of each
//     operator, at most one per operator, and never none.
//  4. Drain: the answer comes at most once per attempt, exactly when an
//     epoch completes with a plan due, and the drained attempt resumes from
//     the newest complete epoch, which may be newer than the one it drained
//     at.
//  5. Checkpoints: start and complete each fire once per epoch in the run, in
//     increasing order, complete exactly when the last current task
//     snapshots the epoch.
//  6. Snapshots taken: the ledger counts distinct (task, epoch) pairs.
//
// Named case: an epoch completed after the drain answer, before the attempt
// ended — the drain then resumes from it. The number of distinct states
// explored is pinned per configuration, so a refactor that quietly shrinks
// the explored space fails here.
func TestEpochLedgerProtocol(t *testing.T) {
	// states is the distinct states explored; a change to the ledger or to
	// the model moves it, and the change must say why.
	for _, cfg := range []struct {
		srcs, ops, plans int
		states           int
	}{
		{1, 1, 2, 6072},
		{1, 2, 2, 36556},
		{2, 1, 2, 28648},
		{2, 2, 1, 21484},
	} {
		name := fmt.Sprintf("srcs%d/ops%d/plans%d", cfg.srcs, cfg.ops, cfg.plans)
		t.Run(name, func(t *testing.T) {
			c := &ledgerChecker{srcs: cfg.srcs, ops: cfg.ops, plans: cfg.plans, seen: make(map[elKey]struct{})}
			if err := c.explore(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states, %d steps, %d runs done; %d drains, %d resumed from an epoch completed during the drain",
				len(c.seen), c.steps, c.finished, c.drains, c.newerResume)
			if c.newerResume == 0 {
				t.Error("named case not reached: an epoch completed between the drain answer and the attempt's end")
			}
			if len(c.seen) != cfg.states {
				t.Errorf("explored %d distinct states, want %d", len(c.seen), cfg.states)
			}
		})
	}
}

// The model's bounds: epochs 1..elEpochs, and task slots 0..1 for the source
// operator's tasks and 2..3 for the rescalable operator's.
const (
	elEpochs = 3
	elSlots  = 4
)

// elModel is the model's own account of a run: ground truth the ledger is
// checked against.
type elModel struct {
	opP       uint8          // the rescalable operator's parallelism
	next      [elSlots]uint8 // the next epoch each task snapshots in the running attempt
	rec       [elSlots]uint8 // epochs (bit e) each current task's state is recorded at
	ever      [elSlots]uint8 // epochs each task slot ever snapshotted
	started   uint8          // the newest epoch whose checkpoint.start fired
	completed uint8          // the newest epoch whose checkpoint.complete fired
	restore   uint8          // the running attempt's restore epoch
	drainAt   uint8          // the epoch the running attempt was answered drain at; 0 = none
	queue     string         // plan codes scheduled and not applied, in scheduling order
	scheduled uint8          // plans scheduled so far
	done      bool           // the run ended
}

// elKey is one global state: the model and the ledger, comparable so it can
// key the visited set.
type elKey struct {
	m                                 elModel
	tasks                             int
	stored, newest                    [elSlots]uint8
	taken, started, complete, restore int64
	pending                           string
	drained                           bool
}

type elNode struct {
	led *epochLedger
	m   elModel
}

// elPlan is plan code k: the rescalable operator to parallelism 1 + k/3, due
// at epoch k%3.
func elPlan(k byte) RescalePlan {
	return RescalePlan{Op: "op", Parallelism: 1 + int(k)/3, AtEpoch: int64(k % 3)}
}

func elCode(p RescalePlan) byte { return byte(3*(p.Parallelism-1)) + byte(p.AtEpoch) }

func (c *ledgerChecker) task(slot int) dataflow.TaskID {
	if slot < 2 {
		return dataflow.TaskID{Op: "src", Index: slot}
	}
	return dataflow.TaskID{Op: "op", Index: slot - 2}
}

func elSlot(t dataflow.TaskID) int {
	if t.Op == "src" {
		return t.Index
	}
	return 2 + t.Index
}

// current lists the slots of the running task set.
func (c *ledgerChecker) current(m *elModel) []int {
	var out []int
	for i := 0; i < c.srcs; i++ {
		out = append(out, i)
	}
	for i := 0; i < int(m.opP); i++ {
		out = append(out, 2+i)
	}
	return out
}

// newestComplete is the newest epoch every current task recorded (0 = none).
func (c *ledgerChecker) newestComplete(m *elModel) uint8 {
	all := uint8(0xff)
	for _, s := range c.current(m) {
		all &= m.rec[s]
	}
	all &^= 1 // epoch 0 is the empty state, never recorded
	if all == 0 {
		return 0
	}
	return uint8(bits.Len8(all) - 1)
}

// dueAt is the plan the model expects a drain at epoch e to apply: the
// earliest-scheduled plan due there, as its index in the queue (-1 = none).
func dueAt(queue string, e uint8) int {
	for i := 0; i < len(queue); i++ {
		if elPlan(queue[i]).AtEpoch <= int64(e) {
			return i
		}
	}
	return -1
}

type ledgerChecker struct {
	srcs, ops, plans    int
	seen                map[elKey]struct{}
	steps, finished     int
	drains, newerResume int
}

func (c *ledgerChecker) key(n *elNode) elKey {
	m, l := &n.m, n.led
	k := elKey{m: *m, tasks: len(l.tasks), taken: l.taken, started: l.started, complete: l.complete, restore: l.restore, drained: l.drained}
	for t, byEpoch := range l.snaps {
		for e := range byEpoch {
			k.stored[elSlot(t)] |= 1 << e
		}
	}
	for t, e := range l.newest {
		k.newest[elSlot(t)] = uint8(e)
	}
	for _, p := range l.pending {
		k.pending += string(elCode(p))
	}
	return k
}

func (n *elNode) clone() elNode {
	l := *n.led
	l.snaps = make(map[dataflow.TaskID]map[int64]*TaskSnapshot, len(n.led.snaps))
	for t, byEpoch := range n.led.snaps {
		l.snaps[t] = maps.Clone(byEpoch)
	}
	l.newest = maps.Clone(n.led.newest)
	l.pending = slices.Clone(n.led.pending)
	return elNode{led: &l, m: n.m}
}

// explore runs a breadth-first search from the run's start and returns the
// first property violation, naming the state it was found in.
func (c *ledgerChecker) explore() error {
	var tasks []dataflow.TaskID
	for i := 0; i < c.srcs; i++ {
		tasks = append(tasks, c.task(i))
	}
	for i := 0; i < c.ops; i++ {
		tasks = append(tasks, c.task(2+i))
	}
	led := newEpochLedger(tasks)
	start := elNode{led: &led, m: elModel{opP: uint8(c.ops)}}
	for s := range start.m.next {
		start.m.next[s] = 1
	}
	c.seen[c.key(&start)] = struct{}{}
	for frontier := []elNode{start}; len(frontier) > 0; {
		var next []elNode
		for i := range frontier {
			n := &frontier[i]
			if err := c.check(n); err != nil {
				return fmt.Errorf("%v\n  in %s", err, c.describe(n))
			}
			err := c.successors(n, func(to elNode) {
				c.steps++
				k := c.key(&to)
				if _, ok := c.seen[k]; !ok {
					c.seen[k] = struct{}{}
					next = append(next, to)
				}
			})
			if err != nil {
				return fmt.Errorf("%v\n  from %s", err, c.describe(n))
			}
		}
		frontier = next
	}
	return nil
}

func (c *ledgerChecker) describe(n *elNode) string {
	m := &n.m
	var queue []RescalePlan
	for i := 0; i < len(m.queue); i++ {
		queue = append(queue, elPlan(m.queue[i]))
	}
	return fmt.Sprintf("op parallelism %d, next %v, recorded %v, ever %v | started %d, completed %d, restore %d, drain answered at %d, queue %v, done %v | ledger: tasks %v, complete %d, restore %d, taken %d, pending %v",
		m.opP, m.next, m.rec, m.ever, m.started, m.completed, m.restore, m.drainAt, queue, m.done,
		n.led.tasks, n.led.complete, n.led.restore, n.led.taken, n.led.pending)
}

// successors calls emit with every state one event from n.
func (c *ledgerChecker) successors(n *elNode, emit func(elNode)) error {
	if n.m.done {
		return nil
	}
	for s := 0; s < c.srcs; s++ {
		if e := n.m.next[s]; e <= elEpochs {
			to := n.clone()
			if err := c.inject(&to, s, e); err != nil {
				return err
			}
			emit(to)
		}
	}
	for s := 2; s < 2+int(n.m.opP); s++ {
		e := n.m.next[s]
		aligned := e <= elEpochs
		for src := 0; src < c.srcs; src++ {
			aligned = aligned && n.m.next[src] > e
		}
		if aligned {
			to := n.clone()
			if err := c.snapshot(&to, s, e); err != nil {
				return err
			}
			emit(to)
		}
	}
	if int(n.m.scheduled) < c.plans {
		for k := byte(0); k < 6; k++ {
			to := n.clone()
			to.led.schedule(elPlan(k))
			to.m.queue += string(k)
			to.m.scheduled++
			emit(to)
		}
	}
	for _, fault := range []bool{true, false} {
		to := n.clone()
		if err := c.end(&to, fault); err != nil {
			return err
		}
		emit(to)
	}
	return nil
}

// inject is a source's barrier injection: the ledger's start, then the
// source's own snapshot.
func (c *ledgerChecker) inject(n *elNode, s int, e uint8) error {
	fired := n.led.start(int64(e))
	if want := e > n.m.started; fired != want {
		return fmt.Errorf("checkpoints: epoch %d injected, start fired %v, want %v (newest started %d)", e, fired, want, n.m.started)
	}
	if fired {
		if e != n.m.started+1 {
			return fmt.Errorf("checkpoints: start fired for epoch %d after epoch %d", e, n.m.started)
		}
		n.m.started = e
	}
	return c.snapshot(n, s, e)
}

// snapshot is task slot s's snapshot of epoch e.
func (c *ledgerChecker) snapshot(n *elNode, s int, e uint8) error {
	m := &n.m
	m.next[s]++
	m.rec[s] |= 1 << e
	m.ever[s] |= 1 << e
	snap := &TaskSnapshot{Task: c.task(s), Epoch: int64(e)}
	if s < 2 {
		snap.SrcOffset = int64(e)
	}
	done, drain := n.led.snapshot(snap)
	want := uint8(0)
	if e > m.completed && c.newestComplete(m) >= e {
		want = e
	}
	if done != int64(want) {
		return fmt.Errorf("checkpoints: %v's snapshot of epoch %d answered complete %d, want %d", snap.Task, e, done, want)
	}
	if done > 0 {
		if e != m.completed+1 {
			return fmt.Errorf("checkpoints: complete fired for epoch %d after epoch %d", e, m.completed)
		}
		m.completed = e
	}
	wantDrain := done > 0 && m.drainAt == 0 && dueAt(m.queue, e) >= 0
	switch {
	case drain && m.drainAt > 0:
		return fmt.Errorf("drain: answered twice in one attempt, at epochs %d and %d", m.drainAt, e)
	case drain != wantDrain:
		return fmt.Errorf("drain: epoch %d completed %d answered drain %v, want %v", e, done, drain, wantDrain)
	case drain:
		m.drainAt = e
	}
	return nil
}

// end ends the running attempt, with or without a fault, and starts the next
// one if the run goes on.
func (c *ledgerChecker) end(n *elNode, fault bool) error {
	m := &n.m
	ending, due := n.led.end(fault)
	want := endDone
	switch {
	case fault:
		want = endFault
	case m.drainAt > 0:
		want = endDrained
	}
	if ending != want {
		return fmt.Errorf("restore: attempt ended %d with fault %v and drain answered at %d, want %d", ending, fault, m.drainAt, want)
	}
	if ending == endDone {
		if n.led.restore != int64(m.restore) {
			return fmt.Errorf("restore: a finished run moved the restore epoch %d to %d", m.restore, n.led.restore)
		}
		m.done = true
		c.finished++
		return nil
	}
	r := c.newestComplete(m)
	switch {
	case n.led.restore != int64(r):
		return fmt.Errorf("restore: attempt restores epoch %d, the newest complete is %d", n.led.restore, r)
	case r < m.restore:
		return fmt.Errorf("restore: restore epoch went backwards: %d after %d", r, m.restore)
	}
	if ending == endDrained {
		if err := c.rescale(n, due, r); err != nil {
			return err
		}
	}
	m.restore, m.drainAt = r, 0
	for s := range m.next {
		m.next[s] = r + 1
	}
	set := n.led.restoreSet(int64(r))
	if r == 0 {
		if len(set) != 0 {
			return fmt.Errorf("restore set: %d snapshots at epoch 0", len(set))
		}
		return nil
	}
	cur := c.current(m)
	if len(set) != len(cur) {
		return fmt.Errorf("restore set: %d snapshots at epoch %d for %d tasks", len(set), r, len(cur))
	}
	for i, s := range cur {
		if set[i].Task != c.task(s) || set[i].Epoch != int64(r) {
			return fmt.Errorf("restore set: snapshot %d is %v at epoch %d, want %v at %d", i, set[i].Task, set[i].Epoch, c.task(s), r)
		}
	}
	return nil
}

// rescale checks a drain's due plans against the model's queue, applies
// them, and moves the model to the rescaled task set.
func (c *ledgerChecker) rescale(n *elNode, due []RescalePlan, r uint8) error {
	m := &n.m
	c.drains++
	if r > m.completed || r == 0 {
		return fmt.Errorf("drain: resumes from epoch %d with epoch %d the newest completed", r, m.completed)
	}
	i := dueAt(m.queue, r)
	switch {
	case len(due) == 0:
		return fmt.Errorf("plans: a drain at epoch %d with no plan due", r)
	case len(due) > 1:
		return fmt.Errorf("plans: one drain applies %d plans of operator %q: %v", len(due), due[0].Op, due)
	case i < 0 || due[0] != elPlan(m.queue[i]):
		return fmt.Errorf("plans: the drain at epoch %d applies %v, want the earliest due of %q", r, due[0], m.queue)
	}
	changes, err := n.led.apply(due, DefaultKeyGroups)
	if err != nil {
		return err
	}
	if len(changes) != 1 || changes[0].From != int(m.opP) || changes[0].To != due[0].Parallelism {
		return fmt.Errorf("plans: applying %v changed %+v", due[0], changes)
	}
	if r > m.drainAt {
		c.newerResume++
	}
	m.queue = m.queue[:i] + m.queue[i+1:]
	m.opP = uint8(due[0].Parallelism)
	for s := range m.rec {
		m.rec[s] &= 1<<(r+1) - 1
		if s >= 2 {
			m.rec[s] = 0
			if s < 2+int(m.opP) {
				m.rec[s] = 1 << r
			}
		}
	}
	return nil
}

// check asserts the state properties of n.
func (c *ledgerChecker) check(n *elNode) error {
	m, l := &n.m, n.led
	cur := c.current(m)
	if len(l.tasks) != len(cur) {
		return fmt.Errorf("restore set: a quorum of %d tasks, %d running", len(l.tasks), len(cur))
	}
	for i, s := range cur {
		if l.tasks[i] != c.task(s) {
			return fmt.Errorf("restore set: task %d is %v, want %v", i, l.tasks[i], c.task(s))
		}
	}
	if l.started != int64(m.started) || l.complete != int64(m.completed) || l.drained != (m.drainAt > 0) {
		return fmt.Errorf("checkpoints: started/complete/drained %d/%d/%v, want %d/%d/%v",
			l.started, l.complete, l.drained, m.started, m.completed, m.drainAt > 0)
	}
	for t, byEpoch := range l.snaps {
		s := elSlot(t)
		if !slices.Contains(cur, s) && len(byEpoch) > 0 {
			return fmt.Errorf("store: removed task %v still holds %d snapshots", t, len(byEpoch))
		}
		for e, snap := range byEpoch {
			if snap.Task != t || snap.Epoch != e {
				return fmt.Errorf("store: %v at epoch %d holds %v's snapshot of epoch %d", t, e, snap.Task, snap.Epoch)
			}
		}
	}
	for _, s := range cur {
		var stored uint8
		for e := range l.snaps[c.task(s)] {
			stored |= 1 << e
		}
		if want := m.rec[s] &^ (1<<m.completed - 1); stored != want {
			return fmt.Errorf("store: %v holds epochs %08b, want %08b (recorded %08b, newest complete %d)",
				c.task(s), stored, want, m.rec[s], m.completed)
		}
	}
	var pending string
	for _, p := range l.pending {
		pending += string(elCode(p))
	}
	if pending != m.queue {
		return fmt.Errorf("plans: the ledger has %v pending, %q were scheduled and not applied", l.pending, m.queue)
	}
	pairs := 0
	for _, ever := range m.ever {
		pairs += bits.OnesCount8(ever)
	}
	if l.taken != int64(pairs) {
		return fmt.Errorf("snapshots taken: %d, want %d distinct (task, epoch) pairs", l.taken, pairs)
	}
	return nil
}
