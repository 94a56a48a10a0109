package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// The wire-credit protocol: a task's credit gate stretched across two
// workers. This file is its state and its transitions, and nothing else — no
// goroutines, no I/O, no clock; the drivers in netexchange.go hold the locks,
// block, and move the frames these transitions name — so the protocol can be
// checked exhaustively against the real creditGate (TestWireCreditProtocol).
//
//   - Sender: a creditQueue per (sending worker, remote task), behind the
//     creditMirror's lock. Each sender-target pair owns wireParkDepth frame
//     buffers; a flush seals its frame of n records into a vacant one, parks
//     it and sends CREDIT_REQ{n}, and blocks only when every buffer of the
//     pair is parked. A CREDIT ships exactly the oldest parked frame, from
//     its own buffer, and must grant exactly its n; a barrier or EOF marker
//     enters the write queue only once every parked frame of its channel has
//     shipped, so it follows the data it closes.
//   - Receiver: a grantQueue per (receiving task, sending worker), behind
//     the grantor's lock. Requests queue in arrival order; each is acquired
//     whole from the task's gate and answered with CREDIT{n}; granted records
//     are outstanding until their DATA frame arrives. The task's dequeue is
//     the gate's release.
//
// Abort and peer-down change no state here: they are the exits every blocked
// driver selects on (the attempt's abort and stop channels, the connection's
// failed channel).

var (
	// ErrCreditOverCapacity reports a CREDIT_REQ for more records than the
	// receiving task's gate holds. No grant could ever cover it, so the
	// receiving worker's attempt fails with this error rather than leave the
	// sender's frame parked forever; peers that disagree on the gate or batch
	// size (mismatched builds) are what sends one.
	ErrCreditOverCapacity = errors.New("wire: credit request exceeds the receiving gate")
	// ErrCreditMismatch reports a CREDIT that is not exactly the oldest parked
	// frame's record count: partial, oversized, or with nothing parked. Every
	// CREDIT answers one CREDIT_REQ, in order, so only a peer that breaks the
	// protocol sends one; pooling it could let a later frame past the gate's
	// bound, so the sending worker's attempt fails with it instead.
	ErrCreditMismatch = errors.New("wire: credit grant does not match the oldest parked frame")
)

// wireParkDepth is how many sealed frames one sender-target pair may have
// parked at once: one waiting on its credit round trip while the next
// already waits behind it, so a saturated sender keeps a frame in the
// pipeline while it fills the following one. Parked frames hold no credit,
// so the depth does not move the in-flight bound.
const wireParkDepth = 2

// creditQueue is the sender's half: the frames parked for one remote task,
// oldest request first, keyed by the sender-target pair that owns each.
type creditQueue[K comparable] struct {
	depth  int // frame buffers per sender-target pair, ≤ 64
	parked []parkedFrame[K]
}

// parkedFrame is one sealed frame waiting for its credit: slot names which
// of its pair's frame buffers holds it.
type parkedFrame[K comparable] struct {
	key  K
	slot int
	need int64
}

// vacant returns the lowest of key's frame buffers that holds no parked
// frame — the one its next flush seals into — and false when all of them
// are parked.
func (q *creditQueue[K]) vacant(key K) (slot int, ok bool) {
	var held uint64
	for _, p := range q.parked {
		if p.key == key {
			held |= 1 << p.slot
		}
	}
	slot = bits.TrailingZeros64(^held)
	return slot, slot < q.depth
}

// park queues key's frame of n records, sealed into buffer slot, and returns
// the credit request to send for it.
func (q *creditQueue[K]) park(key K, slot int, n int64) int64 {
	q.parked = append(q.parked, parkedFrame[K]{key: key, slot: slot, need: n})
	return n
}

// mark reports whether a barrier or EOF marker on key's channel may enter the
// write queue now: only once none of the channel's frames is parked.
func (q *creditQueue[K]) mark(key K) bool {
	return !slices.ContainsFunc(q.parked, func(p parkedFrame[K]) bool { return p.key == key })
}

// grant spends one CREDIT of n records on the oldest parked frame and returns
// it: that frame's buffer moves to the write queue and is vacant again.
func (q *creditQueue[K]) grant(n int64) (parkedFrame[K], error) {
	if len(q.parked) == 0 {
		return parkedFrame[K]{}, fmt.Errorf("%w: %d credits with no frame parked", ErrCreditMismatch, n)
	}
	p := q.parked[0]
	if p.need != n {
		return parkedFrame[K]{}, fmt.Errorf("%w: %d credits for a frame of %d records", ErrCreditMismatch, n, p.need)
	}
	q.parked = q.parked[:copy(q.parked, q.parked[1:])]
	return p, nil
}

// grantQueue is the receiver's half for one sending worker: its requests in
// arrival order and the records granted to it whose data has not arrived.
type grantQueue struct {
	capacity    int64 // the receiving task's gate's
	reqs        []int64
	outstanding int64
}

// request queues one CREDIT_REQ of n records.
func (g *grantQueue) request(n int64) error {
	if n > g.capacity {
		return fmt.Errorf("%w: %d credits against a gate of %d", ErrCreditOverCapacity, n, g.capacity)
	}
	g.reqs = append(g.reqs, n)
	return nil
}

// next pops the oldest request: the one acquire to make next. Requests are
// acquired one at a time, never coalesced: the co-located senders sharing one
// mirror can have requests pending that sum past the gate's capacity, and an
// acquire for that sum could never complete.
func (g *grantQueue) next() (int64, bool) {
	if len(g.reqs) == 0 {
		return 0, false
	}
	n := g.reqs[0]
	g.reqs = g.reqs[:copy(g.reqs, g.reqs[1:])]
	return n, true
}

// granted records a CREDIT of n records sent; arrived, a DATA frame of n
// received.
func (g *grantQueue) granted(n int64) { g.outstanding += n }
func (g *grantQueue) arrived(n int64) { g.outstanding -= n }
