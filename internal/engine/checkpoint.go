package engine

import (
	"fmt"
	"sync"

	"capsys/internal/dataflow"
)

// Snapshotter is implemented by sources, sinks and user operators that keep
// state outside a statebackend namespace — a generator's position, a sink's
// exactly-once fingerprint. SnapshotState must return a deterministic byte
// image (same logical state → same bytes) so recovered runs stay
// byte-identical; RestoreState replaces the operator's state with a
// previously snapshotted image. The image is opaque to the engine: it
// restores with its task but cannot be split by key-group, so an operator
// carrying one cannot be rescaled (repartitionTaskSnapshots). Keyed state
// belongs in the namespace; no built-in operator implements Snapshotter.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState([]byte) error
}

// TaskSnapshot is one task's contribution to a checkpoint epoch. Besides
// operator state it captures the task's progress counters and per-edge
// round-robin positions: restoring those makes the *final* job counters
// invariant to which epoch the restore happens from (the counters count the
// whole stream exactly once, and rebalanced routing resumes mid-cycle
// instead of resetting). The same value crosses the control plane of a
// distributed run — workers ship snapshots to the coordinator as they are
// taken and receive the restore set back with a redeploy — so every field is
// exported for gob.
type TaskSnapshot struct {
	Task       dataflow.TaskID
	Epoch      int64
	RecordsIn  int64
	RecordsOut int64
	BytesOut   int64
	SrcOffset  int64  // next record index for source tasks
	RR         []int  // round-robin position per out-edge
	OpState    []byte // Snapshotter image, nil if the operator has none
	NSState    []byte // statebackend namespace image, nil if stateless
}

// coordinator is the attempt's view of checkpoint coordination. In-process
// runs use checkpointCoordinator directly; distributed workers use a
// remoteCoordinator that forwards snapshots to the controller as frames and
// serves restores from the deploy-shipped snapshot set (see distrun.go).
type coordinator interface {
	noteStarted(epoch int64) bool
	record(s *TaskSnapshot) int64
	lastCompleteEpoch() int64
	snapshotFor(t dataflow.TaskID, epoch int64) *TaskSnapshot
	snapshotsTaken() int64
}

// checkpointCoordinator collects per-task snapshots into global checkpoint
// epochs, mirroring Flink's JobManager-side checkpoint coordinator. It
// models durable remote storage: snapshots survive worker loss, so a task
// re-placed onto a different worker can still restore its state. An epoch is
// globally complete once every task has contributed; completed epochs below
// the newest complete one are pruned.
type checkpointCoordinator struct {
	mu           sync.Mutex
	numTasks     int                                         // guarded by mu; changes only in repartition
	snaps        map[dataflow.TaskID]map[int64]*TaskSnapshot // guarded by mu
	lastComplete int64                                       // guarded by mu
	taken        int64                                       // guarded by mu
	started      map[int64]bool                              // guarded by mu
}

func newCheckpointCoordinator(numTasks int) *checkpointCoordinator {
	return &checkpointCoordinator{
		numTasks: numTasks,
		snaps:    make(map[dataflow.TaskID]map[int64]*TaskSnapshot),
		started:  make(map[int64]bool),
	}
}

// noteStarted marks an epoch's barrier as injected and reports whether this
// was the first injection (replayed barriers after a restart return false),
// so the epoch-start trace event fires exactly once.
func (c *checkpointCoordinator) noteStarted(epoch int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started[epoch] {
		return false
	}
	c.started[epoch] = true
	return true
}

// record stores (or overwrites — replayed epochs after a restart re-snapshot)
// one task's snapshot and advances the globally complete epoch when every
// task has reported it. It returns the newly completed epoch, or 0 when this
// snapshot did not complete one.
func (c *checkpointCoordinator) record(s *TaskSnapshot) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	byEpoch := c.snaps[s.Task]
	if byEpoch == nil {
		byEpoch = make(map[int64]*TaskSnapshot)
		c.snaps[s.Task] = byEpoch
	}
	if _, replay := byEpoch[s.Epoch]; !replay {
		c.taken++
	}
	byEpoch[s.Epoch] = s
	count := 0
	for _, m := range c.snaps {
		if _, ok := m[s.Epoch]; ok {
			count++
		}
	}
	if count == c.numTasks && s.Epoch > c.lastComplete {
		c.lastComplete = s.Epoch
		for _, m := range c.snaps {
			for e := range m {
				if e < c.lastComplete {
					delete(m, e)
				}
			}
		}
		return s.Epoch
	}
	return 0
}

// repartition rewrites the durable snapshot set for a parallelism change of
// op resuming from a complete epoch: the operator's oldP snapshots at that
// epoch are split/merged along key-group boundaries into newP snapshots,
// every epoch beyond the resume point is discarded (they are partial — the
// drain aborted the attempt mid-stream — and the old and new task sets must
// never mix within one epoch), removed tasks' histories are dropped, and the
// completion quorum becomes the new task count. It returns the stored state
// bytes whose owning task changed. No task may be running.
func (c *checkpointCoordinator) repartition(op dataflow.OperatorID, oldP, newP, keyGroups int, epoch int64) (int64, error) {
	old := make([]*TaskSnapshot, oldP)
	for i := range old {
		old[i] = c.snapshotFor(dataflow.TaskID{Op: op, Index: i}, epoch)
	}
	repartitioned, moved, err := repartitionTaskSnapshots(old, oldP, newP, keyGroups)
	if err != nil {
		return 0, fmt.Errorf("engine: rescale %q %d→%d: %w", op, oldP, newP, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.snaps {
		for e := range m {
			if e > epoch {
				delete(m, e)
			}
		}
	}
	for i := newP; i < oldP; i++ {
		delete(c.snaps, dataflow.TaskID{Op: op, Index: i})
	}
	for i, s := range repartitioned {
		s.Task = dataflow.TaskID{Op: op, Index: i}
		if c.snaps[s.Task] == nil {
			c.snaps[s.Task] = make(map[int64]*TaskSnapshot)
		}
		c.snaps[s.Task][epoch] = s
	}
	c.numTasks += newP - oldP
	if epoch > c.lastComplete {
		c.lastComplete = epoch
	}
	return moved, nil
}

// lastCompleteEpoch returns the newest epoch every task has snapshotted,
// or 0 if none has completed yet.
func (c *checkpointCoordinator) lastCompleteEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastComplete
}

// snapshotFor returns task t's snapshot at exactly the given epoch, or nil.
// Epoch 0 is the empty initial state and always returns nil.
func (c *checkpointCoordinator) snapshotFor(t dataflow.TaskID, epoch int64) *TaskSnapshot {
	if epoch <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.snaps[t]; m != nil {
		return m[epoch]
	}
	return nil
}

// snapshotsTaken counts distinct (task, epoch) snapshots recorded.
func (c *checkpointCoordinator) snapshotsTaken() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taken
}
