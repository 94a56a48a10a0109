package engine

import (
	"cmp"
	"slices"
)

// Barrier alignment: one task's checkpoint barriers lined up across its input
// channels. This file is the protocol's state and its transitions, and
// nothing else — no goroutines, no I/O, no clock; runOperator dequeues, lifts
// watermarks, processes and checkpoints around it — so it can be checked
// exhaustively (TestAlignmentProtocol).
//
// The first barrier of an epoch puts it in flight. From then on a channel
// that has delivered it is aligned: everything dequeued on it belongs to the
// next epoch and is held, unprocessed. When every channel is aligned or
// exhausted (an EOF'd channel never delivers another barrier, so it counts as
// aligned), the epoch is checkpointed, the channels open again and the held
// messages are released, in arrival order and ahead of any released messages
// still queued from an earlier release. Those are later on their channels:
// the task reads its inbox only once the queue is empty, so whatever was held
// while the queue was non-empty came off the queue's front.
//
// The hold is not bounded by the credit gates: a batch returns its credits
// when it is dequeued, held or not, so an aligned channel's sender keeps
// filling the hold until the slowest channel's barrier arrives. The hold is
// at most what the aligned channels deliver between their barrier and that
// one, and no other message ever waits in it.

// chanStatus is one input channel's state in the alignment.
type chanStatus uint8

const (
	chanOpen    chanStatus = 0 // its messages are processed as they come
	chanAligned chanStatus = 1 // delivered the in-flight barrier; its messages are held
	chanEOF     chanStatus = 2 // exhausted; completing an alignment clears only the aligned bit
)

// alignAction is what the driver does with a message it offered.
type alignAction uint8

const (
	alignProcess    alignAction = iota // a data message: run it through the operator
	alignHold                          // the machine keeps it until the epoch is aligned
	alignNone                          // a barrier or EOF taken; nothing more to do yet
	alignCheckpoint                    // the in-flight epoch is aligned: checkpoint it
	alignDone                          // every channel is exhausted
)

// aligner is one task's barrier alignment.
type aligner struct {
	status []chanStatus
	epoch  int64     // the barrier in flight; 0 when none (epochs count from 1)
	held   []message // dequeued on aligned channels, in arrival order
	queue  []message // released, to be offered again before the inbox is read
}

func newAligner(channels int) aligner { return aligner{status: make([]chanStatus, channels)} }

// next pops the oldest released message.
func (m *aligner) next() (msg message, ok bool) {
	if ok = len(m.queue) > 0; ok {
		msg, m.queue = m.queue[0], m.queue[1:]
	}
	return msg, ok
}

// offer takes one message dequeued from channel msg.ch and says what to do
// with it; with alignCheckpoint it returns the epoch to checkpoint. With no
// barrier in flight a data message costs one inlined check (the zero action
// is alignProcess).
func (m *aligner) offer(msg *message) (act alignAction, epoch int64) {
	if m.epoch != 0 || msg.barrier || msg.eof {
		act, epoch = m.control(msg)
	}
	return act, epoch
}

func (m *aligner) control(msg *message) (alignAction, int64) {
	switch {
	case m.epoch != 0 && m.status[msg.ch] == chanAligned:
		m.held = append(m.held, *msg)
		return alignHold, 0
	case msg.barrier:
		m.epoch = cmp.Or(m.epoch, msg.epoch)
		m.status[msg.ch] = chanAligned
	case msg.eof:
		m.status[msg.ch] = chanEOF
	default:
		return alignProcess, 0
	}
	if slices.Contains(m.status, chanOpen) {
		return alignNone, 0
	}
	if m.epoch == 0 {
		return alignDone, 0 // nothing is aligned with no barrier in flight: all EOF
	}
	epoch := m.epoch
	m.epoch = 0
	for i := range m.status {
		m.status[i] &^= chanAligned // aligned channels open again; EOF stays
	}
	m.queue = append(m.held, m.queue...)
	m.held = nil
	return alignCheckpoint, epoch
}
