package engine

import (
	"fmt"

	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
)

// Live rescaling: change one operator's parallelism on a running job without
// replaying the stream from the start. The protocol is
// checkpoint→repartition→resume: the job drains to the next barrier-aligned
// epoch (every task snapshots, exactly as for fault recovery), the affected
// operator's per-task snapshots are split/merged along key-group boundaries
// (statebackend.Repartition), the coordinator's durable snapshot set is
// rewritten for the new task count, and the job redeploys resuming from that
// epoch. Records between the epoch barrier and the drain are re-read from
// the sources' snapshotted offsets — bounded by one epoch interval, never a
// full replay — and nothing is lost, because every record either reached a
// snapshot or is replayed past the restore point.

// DefaultKeyGroups re-exports the statebackend default so callers sizing a
// job's key-group space (the distributed coordinator, CLIs) need not import
// the state layer.
const DefaultKeyGroups = statebackend.DefaultKeyGroups

// RescalePlan schedules one parallelism change.
type RescalePlan struct {
	// Op is the operator to rescale. Sources cannot be rescaled (their
	// count fixes the input partitioning); any other operator can.
	Op dataflow.OperatorID
	// Parallelism is the new task count, in [1, KeyGroups].
	Parallelism int
	// AtEpoch triggers the rescale at the first globally complete checkpoint
	// epoch >= AtEpoch (0 = the next one to complete).
	AtEpoch int64
}

// RescaleEvent describes an applied rescale, passed to the OnRescale
// re-placement hook and mirrored in the rescale.start trace event.
type RescaleEvent struct {
	Op             dataflow.OperatorID
	OldParallelism int
	NewParallelism int
	// Epoch is the checkpoint epoch the job resumes from.
	Epoch int64
	// MovedBytes counts the stored state bytes whose owning task changed.
	MovedBytes int64
	// DeadWorkers lists workers lost to earlier faults (their slots are
	// unavailable to the re-placement).
	DeadWorkers []int
	// Attempt is the attempt number that drained for this rescale.
	Attempt int
}

// repartitionTaskSnapshots converts one operator's oldP snapshots at a
// completed epoch into newP snapshots for the rescaled operator. Keyed state
// lives in the namespace images and moves along key-group boundaries
// (statebackend.Repartition) — nothing else moves. A Snapshotter image is
// opaque bytes with no key-groups to move it by, so an operator whose tasks
// carry one is refused. Progress counters are preserved in aggregate
// (survivor tasks keep theirs, removed tasks' counters fold onto task 0) so
// job-level totals — sink records, reprocessing accounting — stay exact
// across the rescale. Per-task round-robin cursors carry over for surviving
// tasks and start fresh for new ones.
func repartitionTaskSnapshots(snaps []*TaskSnapshot, oldP, newP, numGroups int) ([]*TaskSnapshot, int64, error) {
	epoch := int64(0)
	nsStates := make([][]byte, oldP)
	for i, s := range snaps {
		if s == nil {
			return nil, 0, fmt.Errorf("engine: rescale: task %d has no snapshot at the drain epoch", i)
		}
		if i == 0 {
			epoch = s.Epoch
		} else if s.Epoch != epoch {
			return nil, 0, fmt.Errorf("engine: rescale: task %d snapshot at epoch %d, want %d", i, s.Epoch, epoch)
		}
		if len(s.OpState) > 0 {
			return nil, 0, fmt.Errorf("engine: rescale: operator %q keeps a Snapshotter image (task %d), which cannot be repartitioned; keyed state belongs in the namespace", s.Task.Op, i)
		}
		nsStates[i] = s.NSState
	}
	newNS, moved, err := statebackend.Repartition(nsStates, oldP, newP, numGroups)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: rescale: %w", err)
	}
	out := make([]*TaskSnapshot, newP)
	for i := range out {
		ns := &TaskSnapshot{Epoch: epoch, NSState: newNS[i]}
		if i < oldP {
			old := snaps[i]
			ns.RecordsIn = old.RecordsIn
			ns.RecordsOut = old.RecordsOut
			ns.BytesOut = old.BytesOut
			ns.SrcOffset = old.SrcOffset
			ns.RR = append([]int(nil), old.RR...)
		}
		out[i] = ns
	}
	for i := newP; i < oldP; i++ {
		out[0].RecordsIn += snaps[i].RecordsIn
		out[0].RecordsOut += snaps[i].RecordsOut
		out[0].BytesOut += snaps[i].BytesOut
	}
	return out, moved, nil
}

// Rescale requests a live parallelism change for op: the job drains to the
// next complete checkpoint epoch, repartitions the operator's key-groups,
// and resumes from that epoch. Safe to call from any goroutine (including
// telemetry callbacks) while the job runs; the change applies at the next
// epoch boundary. Returns an error if the request can never apply —
// unknown or source operator, parallelism out of [1, KeyGroups], snapshots
// disabled, or a Forward-edge peer pinning the operator's parallelism.
func (j *Job) Rescale(op dataflow.OperatorID, parallelism int) error {
	return j.schedule(RescalePlan{Op: op, Parallelism: parallelism})
}

func (j *Job) schedule(p RescalePlan) error {
	// The graph-shaped rules are checked here, where the graph lives; the
	// supervisor checks the rest and owns the queue. rescaleMu: SetParallelism
	// swaps the graph between attempts.
	j.rescaleMu.Lock()
	g := j.graph
	j.rescaleMu.Unlock()
	if g.Operator(p.Op) != nil {
		if len(g.Upstream(p.Op)) == 0 {
			return fmt.Errorf("engine: cannot rescale source %q (source count fixes the input partitioning)", p.Op)
		}
		// A Forward-edge peer would be left at the old parallelism; reject
		// now rather than fail the drain later.
		if _, err := g.Rescale(map[dataflow.OperatorID]int{p.Op: p.Parallelism}); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return j.sup.Schedule(p)
}

// SetParallelism swaps in the rescaled graph between attempts (the local
// executor's topology step; no task goroutine is alive).
func (x *localExecutor) SetParallelism(op dataflow.OperatorID, parallelism int) error {
	j := x.j
	g, err := j.graph.Rescale(map[dataflow.OperatorID]int{op: parallelism})
	if err != nil {
		return err
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return err
	}
	// rescaleMu: Job.Rescale validates against j.graph from other
	// goroutines; Run's goroutine is the only writer.
	j.rescaleMu.Lock()
	j.graph, j.phys, j.fuseNext = g, phys, fusionMap(g, j.opts.DisableFusion)
	j.rescaleMu.Unlock()
	return nil
}

// fusionMap recomputes the fusion successor map for a (possibly rescaled)
// graph; NewJob and SetParallelism share it so an attempt after a rescale
// fuses by exactly the same rule as the first.
func fusionMap(g *dataflow.LogicalGraph, disabled bool) map[dataflow.OperatorID]dataflow.OperatorID {
	fuseNext := make(map[dataflow.OperatorID]dataflow.OperatorID)
	if disabled {
		return fuseNext
	}
	for _, op := range g.Operators() {
		if next, ok := dataflow.PipelinedSuccessor(g, op.ID); ok {
			fuseNext[op.ID] = next
		}
	}
	return fuseNext
}

// maybeTriggerRescale aborts the attempt for a pending rescale once epoch
// completes. Called from snapshotTask on task goroutines; the failure event,
// if any, wins the race (the rescale stays pending and re-arms).
func (a *attempt) maybeTriggerRescale(epoch int64) {
	// Distributed workers drain under coordinator control (the store lives
	// coordinator-side and remote record() never completes epochs), so this
	// path is in-process only.
	if a.dist != nil || a.j.sup.dueRescale(epoch) == nil {
		return
	}
	a.mu.Lock()
	if a.failEv == nil && a.rescaleEpoch == 0 {
		a.rescaleEpoch = epoch
		a.rescaleAt = a.clk()
	}
	a.mu.Unlock()
	a.doAbort()
}
