package engine

import (
	"fmt"

	"capsys/internal/dataflow"
)

// Operator fusion (Flink's operator chaining, paper §6.1): when a Forward
// edge connects two equal-parallelism operators 1:1 — no repartitioning, no
// join fan-in (dataflow.PipelinedSuccessor) — and the plan places task i of
// both operators on the same worker, the pair needs no exchange at all. The
// engine then runs the downstream task inline on the upstream task's
// goroutine: the edge's sender becomes a fusedSender that calls straight
// into the downstream operator instead of routing a message through an
// inbox, and the downstream task gets no goroutine of its own.
//
// Fusion must be unobservable except in speed. The fused member keeps its
// full taskRuntime — counters, watermarks, state namespace, snapshots,
// fault hooks — and every control event traverses the chain exactly as the
// exchange would deliver it:
//
//   - records: send replays the edge's route() so the round-robin cursor
//     (part of the checkpoint image) stays bit-identical, advances the
//     upstream's records/bytes-out, updates the member's single-channel
//     watermark, honors drain-and-discard for failed members, then runs
//     processRecord — the same entry the unfused loops use.
//   - barriers: a single-input task is aligned the moment its one barrier
//     arrives, so barrier() goes straight to the checkpoint step every task
//     takes: snapshot, forward downstream (recursing through the chain),
//     then the epoch-aligned kill check.
//   - EOF: eof() lifts the member's watermark and runs its finish path
//     (operator Close, then EOF on its own senders), skipping Close for
//     failed members exactly as runOperator does.
//
// Divergences are confined to timing telemetry: the head's busy time covers
// the whole chain (members never wait on a channel, so their busy and
// backpressure stay near zero), and intra-chain hops charge no network
// tokens — they never did, being same-worker.

// fusedSender is the edgeSender for a fused (same-worker, Forward) edge.
// All methods run on the chain head's goroutine.
type fusedSender struct {
	att  *attempt
	rt   *taskRuntime // upstream
	down *taskRuntime // fused member driven inline
	opr  Operator
	edge *downstreamEdge
	ch   int // the member's receive-channel index for this edge
}

func newFusedSender(a *attempt, rt *taskRuntime, edge *downstreamEdge) (*fusedSender, error) {
	down := edge.fuseTo
	opr, ok := down.op.(Operator)
	if !ok {
		return nil, fmt.Errorf("engine: fused task %v is %T, want Operator", down.id, down.op)
	}
	return &fusedSender{att: a, rt: rt, down: down, opr: opr, edge: edge, ch: edge.chans[0]}, nil
}

func (s *fusedSender) send(rec Record) {
	rt := s.rt
	if rt.aborted {
		return
	}
	if s.att.abortFlag.Load() {
		// A fully fused chain touches no channels, so without this check it
		// would never notice another task aborting the attempt.
		rt.aborted = true
		return
	}
	// route() is called for its side effect only: the rr cursor must evolve
	// exactly as on the unfused edge, because it is part of the checkpoint
	// image. A Forward edge has a single target, so the result is always 0.
	s.edge.route(rec)
	size := recordSize(rec)
	rt.bytesOut += size
	rt.recordsOut++
	rt.fusedOut++
	down := s.down
	if rec.Time > down.chanWM[s.ch] {
		down.chanWM[s.ch] = rec.Time
		down.refreshWatermark()
	}
	if down.failure != nil {
		return // drain-and-discard after a failure
	}
	s.att.processRecord(down, s.opr, rec, s.edge.inIdx, rt.ingestNS, false)
	if down.aborted {
		rt.aborted = true
	}
}

func (s *fusedSender) flush() {}

func (s *fusedSender) barrier(epoch int64) {
	rt, down := s.rt, s.down
	if rt.aborted {
		return
	}
	if s.att.abortFlag.Load() {
		rt.aborted = true
		return
	}
	// The member's single input channel is this edge: the barrier that just
	// arrived aligns it, so the member checkpoints at once.
	s.att.checkpoint(down, epoch, 0)
	if down.aborted {
		rt.aborted = true
	}
}

func (s *fusedSender) eof() {
	rt, down := s.rt, s.down
	if rt.aborted {
		return
	}
	down.observe(message{eof: true, ch: s.ch})
	if down.failure != nil {
		down.finish(nil)
	} else {
		down.finish(s.opr)
	}
	if down.aborted {
		rt.aborted = true
	}
}

// fusedFailure returns the first failure among this task's fused members,
// in chain order. A fused member has no goroutine, so its chain head
// surfaces the error on its behalf.
func (rt *taskRuntime) fusedFailure() (dataflow.TaskID, error) {
	for _, m := range rt.fused {
		if m.failure != nil {
			return m.id, m.failure
		}
		if id, err := m.fusedFailure(); err != nil {
			return id, err
		}
	}
	return dataflow.TaskID{}, nil
}
