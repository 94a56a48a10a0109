package engine

import (
	"errors"
	"fmt"
	"slices"
)

// The wire-credit protocol: a task's credit gate stretched across two
// workers. This file is its state and its transitions, and nothing else — no
// goroutines, no I/O, no clock; the drivers in netexchange.go hold the locks,
// block, and move the frames these transitions name — so the protocol can be
// checked exhaustively against the real creditGate (TestWireCreditProtocol).
//
//   - Sender: a creditQueue per (sending worker, remote task), behind the
//     creditMirror's lock. A flush parks its sealed frame of n records and
//     sends CREDIT_REQ{n}; a CREDIT ships exactly the oldest parked frame and
//     must grant exactly its n; a barrier or EOF marker enters the write
//     queue only once its channel's frame has shipped, so it follows the
//     data it closes.
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

// creditQueue is the sender's half: the frames parked for one remote task,
// oldest request first, keyed by the sender-target pair that owns each.
type creditQueue[K comparable] struct {
	parked []parkedFrame[K]
}

type parkedFrame[K comparable] struct {
	key  K
	need int64
}

// park queues key's sealed frame of n records and returns the credit request
// to send for it.
func (q *creditQueue[K]) park(key K, n int64) int64 {
	q.parked = append(q.parked, parkedFrame[K]{key: key, need: n})
	return n
}

// holds reports whether key's last frame is still parked.
func (q *creditQueue[K]) holds(key K) bool {
	return slices.ContainsFunc(q.parked, func(p parkedFrame[K]) bool { return p.key == key })
}

// mark reports whether a barrier or EOF marker on key's channel may enter the
// write queue now: only behind the channel's parked frame.
func (q *creditQueue[K]) mark(key K) bool { return !q.holds(key) }

// grant spends one CREDIT of n records on the oldest parked frame and returns
// its key: that frame moves to the write queue.
func (q *creditQueue[K]) grant(n int64) (key K, err error) {
	if len(q.parked) == 0 {
		return key, fmt.Errorf("%w: %d credits with no frame parked", ErrCreditMismatch, n)
	}
	if need := q.parked[0].need; need != n {
		return key, fmt.Errorf("%w: %d credits for a frame of %d records", ErrCreditMismatch, n, need)
	}
	key = q.parked[0].key
	q.parked = q.parked[:copy(q.parked, q.parked[1:])]
	return key, nil
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
