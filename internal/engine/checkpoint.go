package engine

import "capsys/internal/dataflow"

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
// distributed run in the SNAPSHOT layout (wirecodec.go) — workers ship
// snapshots to the coordinator as they are taken and receive the restore set
// back, one SNAPSHOT frame per task, ahead of a redeploy.
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
