package engine

import (
	"fmt"
	"strings"

	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
)

// Live rescaling: change operators' parallelism on a running job without
// replaying the stream from the start. The protocol is
// checkpoint→repartition→resume: the job drains to the next barrier-aligned
// epoch (every task snapshots, exactly as for fault recovery), each changed
// operator's per-task snapshots are split/merged along key-group boundaries
// (statebackend.Repartition), the coordinator's durable snapshot set is
// rewritten for the new task counts, and the job redeploys resuming from that
// epoch. Every plan due at the epoch shares the one drain. Records between the
// epoch barrier and the drain are re-read from the sources' snapshotted
// offsets — bounded by one epoch interval, never a full replay — and nothing
// is lost, because every record either reached a snapshot or is replayed past
// the restore point.

// DefaultKeyGroups re-exports the statebackend default so callers sizing a
// job's key-group space (the distributed coordinator, CLIs) need not import
// the state layer.
const DefaultKeyGroups = statebackend.DefaultKeyGroups

// DefaultKeyGroupsFor is the key-group count of a job placed by plan that
// sets none: DefaultKeyGroups, raised to the widest operator's task count so
// that every task of a keyed operator owns a group. NewJob and the
// distributed coordinator both resolve a zero count with it, so a cluster
// that pins the count agrees with a job that does not.
func DefaultKeyGroupsFor(plan *dataflow.Plan) int {
	n := DefaultKeyGroups
	if plan == nil {
		return n // refused later as ErrInvalidPlan
	}
	width := make(map[dataflow.OperatorID]int)
	plan.Each(func(t dataflow.TaskID, _ int) {
		width[t.Op]++
		n = max(n, width[t.Op])
	})
	return n
}

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

// RescaleChange is one operator's parallelism change within a drain.
type RescaleChange struct {
	Op       dataflow.OperatorID
	From, To int
	// MovedBytes counts the operator's stored state bytes whose owning task
	// changed.
	MovedBytes int64
}

// RescaleEvent describes one applied drain — every plan due at its epoch, at
// most one per operator — passed to the OnRescale re-placement hook and
// mirrored in one rescale.start trace event per change.
type RescaleEvent struct {
	// Changes lists every operator the drain changed, in scheduling order.
	Changes []RescaleChange
	// Parallelism is the job's whole running parallelism after the drain.
	Parallelism map[dataflow.OperatorID]int
	// Epoch is the checkpoint epoch the job resumes from.
	Epoch int64
	// MovedBytes sums the changes' MovedBytes.
	MovedBytes int64
	// DeadWorkers lists workers lost to earlier faults (their slots are
	// unavailable to the re-placement).
	DeadWorkers []int
	// Attempt is the attempt number that drained.
	Attempt int
}

// String lists the drain's changes: `"map" 4→3, "slide-win" 8→5`.
func (ev RescaleEvent) String() string {
	what := make([]string, len(ev.Changes))
	for i, c := range ev.Changes {
		what[i] = fmt.Sprintf("%q %d→%d", c.Op, c.From, c.To)
	}
	return strings.Join(what, ", ")
}

// repartitionTaskSnapshots converts one operator's oldP snapshots at a
// completed epoch into newP snapshots for the rescaled operator. Keyed state
// lives in the namespace images and moves along key-group boundaries
// (statebackend.Repartition) — nothing else moves. A Snapshotter image is
// opaque bytes with no key-groups to move it by, so an operator whose tasks
// carry one is refused; so is a source, whose offsets fix the input
// partitioning (both executors drain through here, so a coordinator built
// without Job.Rescale's graph check refuses it too). Progress counters are
// preserved in aggregate (survivor tasks keep theirs, removed tasks' counters
// fold onto task 0) so job-level totals — sink records, reprocessing
// accounting — stay exact across the rescale. Per-task round-robin cursors carry over for surviving
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
		if s.SrcOffset > 0 {
			return nil, 0, rescaleRefused("engine: rescale: operator %q is a source (task %d has a source offset), whose count fixes the input partitioning", s.Task.Op, i)
		}
		if len(s.OpState) > 0 {
			return nil, 0, rescaleRefused("engine: rescale: operator %q keeps a Snapshotter image (task %d), which cannot be repartitioned; keyed state belongs in the namespace", s.Task.Op, i)
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
// epoch boundary. Returns an ErrRescaleRefused error if the request can
// never apply — unknown or source operator, parallelism out of [1,
// KeyGroups], snapshots disabled, or a Forward-edge peer pinning the
// operator's parallelism.
func (j *Job) Rescale(op dataflow.OperatorID, parallelism int) error {
	return j.schedule(RescalePlan{Op: op, Parallelism: parallelism})
}

func (j *Job) schedule(p RescalePlan) error {
	// The graph-shaped rules are checked here, where the graph lives; the
	// supervisor checks the rest and owns the queue. NewJob's graph gives the
	// same answer as the running one: sources and Forward-edge peers never
	// change parallelism.
	if j.graph.Operator(p.Op) != nil {
		if len(j.graph.Upstream(p.Op)) == 0 {
			return rescaleRefused("engine: cannot rescale source %q (source count fixes the input partitioning)", p.Op)
		}
		// A Forward-edge peer would be left at the old parallelism; reject
		// now rather than fail the drain later.
		if _, err := j.graph.Rescale(map[dataflow.OperatorID]int{p.Op: p.Parallelism}); err != nil {
			return rescaleRefused("engine: %w", err)
		}
	}
	return j.sup.Schedule(p)
}

// fusionMap computes the fusion successor map of an attempt's (possibly
// rescaled) graph, so an attempt after a rescale fuses by exactly the same
// rule as the first.
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
