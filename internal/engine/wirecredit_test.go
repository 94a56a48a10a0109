package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestWireCreditProtocol checks the wire-credit protocol exhaustively: every
// interleaving of two co-located senders feeding one remote task through a
// gate of at most 3 records, each sender keeping up to depth frames parked
// and flushing at most 3 batches of any size the gate admits and then its
// EOF marker, with an abort, a peer-down and a hostile grant possible at
// every point. Each step drives the real
// creditQueue and grantQueue of wirecredit.go and the real creditGate; what
// the drivers do around them — the write queues and TCP streams, the
// receiving task's inbox, the waits of blocked parties — is modelled here.
// Every reachable state is checked for:
//
//  1. The bound: records shipped toward the task and not yet dequeued, plus
//     the grants on their way back to the sender, are covered by credits
//     acquired from the gate — never more than its capacity.
//  2. Conservation: until an abort or a peer-down, every credit is in
//     the gate, on the wire as a grant or as data, or in the inbox; the
//     grantor's outstanding count is what is on the wire; and it is 0 when
//     the sending worker's last EOF arrives — which is why a grantor needs no
//     retirement at EOF.
//  3. Progress: a state short of every EOF delivered, with no fault, has an
//     enabled step.
//  4. Termination: after an abort or a peer-down, every blocked party has an
//     exit — a grantor blocked in the real gate's acquire returns once the
//     attempt's stop channel closes, and a peer-down always leads to an abort.
//
// Two states that once hung the transport are named cases that must be
// reached and terminate: a writer blocked on a dead peer during a drain (both senders have queued
// their EOF when the connection dies under queued frames), and a grant that
// arrives after an abort (it ships its frame into a dead queue and fails
// nothing). The number of distinct states explored is pinned per
// configuration, so a refactor that quietly shrinks the explored space fails
// here. Depth 2 is the engine's (wireParkDepth); its larger gates run two
// batches per sender, not three, which keeps the whole check near 2 s
// (three batches at gate 3 is 5.3 M states and over 20 s).
func TestWireCreditProtocol(t *testing.T) {
	// states is the distinct states explored; a change to the protocol or to
	// the model moves it, and the change must say why.
	for _, cfg := range []struct {
		depth, capacity, batches int
		states                   int
	}{
		{1, 1, 3, 10508},
		{1, 2, 3, 47816},
		{1, 3, 3, 159900},
		{2, 1, 3, 46020},
		{2, 2, 2, 82645},
		{2, 3, 2, 335103},
	} {
		name := fmt.Sprintf("gate%d", cfg.capacity)
		if cfg.depth > 1 {
			name = fmt.Sprintf("depth%d/%s", cfg.depth, name)
		}
		t.Run(name, func(t *testing.T) {
			c := newCreditChecker(int64(cfg.capacity), cfg.depth, cfg.batches)
			if err := c.explore(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states, %d steps; drain on a dead peer reached %d times, grant after abort %d times",
				len(c.seen), c.steps, c.drainOnDeadPeer, c.grantAfterAbort)
			if c.drainOnDeadPeer == 0 || c.grantAfterAbort == 0 {
				t.Errorf("named cases not reached: drain on a dead peer %d, grant after abort %d",
					c.drainOnDeadPeer, c.grantAfterAbort)
			}
			if len(c.seen) != cfg.states {
				t.Errorf("explored %d distinct states, want %d", len(c.seen), cfg.states)
			}
		})
	}
}

const (
	wcSenders = 2

	// Frame kinds on the sender-to-receiver stream.
	wcReq  = 'R'
	wcData = 'D'
	wcEOF  = 'E'
)

// wcState is one global state of the model, comparable so it can key the
// visited set. Queues are strings of bytes: the sender's parked frames as
// (sender, buffer, records) triples, the data stream as (kind, sender, records)
// triples, the grant stream and the grantor's requests as record counts,
// and each channel's inbox as record counts with 0 for its EOF.
type wcState struct {
	batches [wcSenders]uint8 // batches flushed
	eofSent [wcSenders]bool  // EOF marker queued
	parked  string           // creditQueue
	data    string           // sender -> receiver: write queue, socket, reader
	grants  string           // receiver -> sender: CREDIT counts
	reqs    string           // grantQueue.reqs
	out     int64            // grantQueue.outstanding
	acq     uint8            // the request the grantor is acquiring; 0 idle
	avail   int64            // the creditGate's
	inbox   [wcSenders]string
	eofIn   [wcSenders]bool // EOF arrived at the receiver's reader
	eofDone [wcSenders]bool // EOF dequeued by the task

	aborted, peerDown, hostile bool
}

type creditChecker struct {
	capacity                         int64
	depth, batches                   int
	seen                             map[string]struct{} // wcState.key of every state reached
	steps                            int
	drainOnDeadPeer, grantAfterAbort int
}

func newCreditChecker(capacity int64, depth, batches int) *creditChecker {
	return &creditChecker{capacity: capacity, depth: depth, batches: batches, seen: make(map[string]struct{})}
}

// explore runs a breadth-first search from the initial state and returns
// the first property violation, naming the state it was found in.
func (c *creditChecker) explore() error {
	start := wcState{avail: c.capacity}
	c.seen[start.key()] = struct{}{}
	for frontier := []wcState{start}; len(frontier) > 0; {
		var next []wcState
		for _, s := range frontier {
			if err := c.check(s); err != nil {
				return fmt.Errorf("%v\n  in %v", err, s)
			}
			moved := false
			err := c.successors(s, func(to wcState, fault bool) {
				c.steps++
				moved = moved || !fault
				k := to.key()
				if _, ok := c.seen[k]; !ok {
					c.seen[k] = struct{}{}
					next = append(next, to)
				}
			})
			if err != nil {
				return fmt.Errorf("%v\n  from %v", err, s)
			}
			if !moved && !s.aborted && !s.peerDown && !s.done() {
				return fmt.Errorf("progress: no step enabled short of every EOF delivered\n  in %v", s)
			}
		}
		frontier = next
	}
	return nil
}

func (s *wcState) done() bool { return s.eofDone[0] && s.eofDone[1] }

func (s wcState) String() string {
	return fmt.Sprintf("batches %v eof sent %v in %v done %v | parked %q data %q grants %q | requests %q outstanding %d acquiring %d gate %d inbox %q | aborted %v peer-down %v hostile %v",
		s.batches, s.eofSent, s.eofIn, s.eofDone, s.parked, s.data, s.grants,
		s.reqs, s.out, s.acq, s.avail, s.inbox, s.aborted, s.peerDown, s.hostile)
}

// key packs s into a few dozen bytes: the visited set holds hundreds of
// thousands of states, and the struct with its string headers is five times
// the size.
func (s *wcState) key() string {
	flags := 0
	for i, f := range []bool{s.eofSent[0], s.eofSent[1], s.eofIn[0], s.eofIn[1], s.eofDone[0], s.eofDone[1], s.aborted, s.peerDown, s.hostile} {
		if f {
			flags |= 1 << i
		}
	}
	b := []byte{s.batches[0], s.batches[1], byte(flags), byte(flags >> 8), byte(s.out), s.acq, byte(s.avail)}
	for _, q := range []string{s.parked, s.data, s.grants, s.reqs, s.inbox[0], s.inbox[1]} {
		b = append(append(b, byte(len(q))), q...)
	}
	return string(b)
}

// The real machine values a state stands for.
func (c *creditChecker) sender(s wcState) *creditQueue[int] {
	q := &creditQueue[int]{depth: c.depth}
	for i := 0; i < len(s.parked); i += 3 {
		q.park(int(s.parked[i]), int(s.parked[i+1]), int64(s.parked[i+2]))
	}
	return q
}

func (c *creditChecker) receiver(s wcState) *grantQueue {
	g := &grantQueue{capacity: c.capacity, outstanding: s.out}
	for i := 0; i < len(s.reqs); i++ {
		if err := g.request(int64(s.reqs[i])); err != nil {
			panic(err) // every request in a state was accepted once
		}
	}
	return g
}

func (c *creditChecker) gate(s wcState) *creditGate {
	g := newCreditGate(c.capacity)
	g.avail.Store(s.avail)
	return g
}

func encodeParked(q *creditQueue[int]) string {
	var b strings.Builder
	for _, p := range q.parked {
		b.WriteByte(byte(p.key))
		b.WriteByte(byte(p.slot))
		b.WriteByte(byte(p.need))
	}
	return b.String()
}

// bufferRecords is the record count of the frame sealed into sender's buffer
// slot, read off the parked frames.
func bufferRecords(parked string, sender, slot int) byte {
	for i := 0; i < len(parked); i += 3 {
		if int(parked[i]) == sender && int(parked[i+1]) == slot {
			return parked[i+2]
		}
	}
	panic(fmt.Sprintf("sender %d's buffer %d is not parked in %q", sender, slot, parked))
}

func encodeReqs(g *grantQueue) string {
	var b strings.Builder
	for _, n := range g.reqs {
		b.WriteByte(byte(n))
	}
	return b.String()
}

// successors calls emit with every state one step from s; fault marks the
// injected steps (abort, peer-down, a hostile grant, the escalation), which
// do not count as progress. An error is a step the protocol got wrong.
func (c *creditChecker) successors(s wcState, emit func(to wcState, fault bool)) error {
	if !s.aborted {
		c.abortAndPeerDown(s, emit)
		if err := c.hostileGrants(s, emit); err != nil {
			return err
		}
		if !s.peerDown {
			c.senderSteps(s, emit)
		}
		if err := c.receiverSteps(s, emit); err != nil {
			return err
		}
	}
	return c.grantArrives(s, emit)
}

func (c *creditChecker) abortAndPeerDown(s wcState, emit func(wcState, bool)) {
	to := s
	to.aborted = true
	emit(to, true)
	if s.peerDown {
		return // the escalation (or the coordinator's abort) above is its exit
	}
	to = s
	to.peerDown = true
	to.data, to.grants = "", "" // queued and in-flight frames die with the connection
	if s.eofSent[0] && s.eofSent[1] && len(s.data) > 0 {
		c.drainOnDeadPeer++ // a clean finish draining its writer into a dead peer
	}
	emit(to, true)
}

// hostileGrants injects every CREDIT that does not match the oldest parked
// frame: each must fail with ErrCreditMismatch, ship nothing and fail the
// attempt.
func (c *creditChecker) hostileGrants(s wcState, emit func(wcState, bool)) error {
	if s.hostile || s.peerDown {
		return nil
	}
	for n := int64(1); n <= c.capacity+1; n++ {
		q := c.sender(s)
		if len(q.parked) > 0 && q.parked[0].need == n {
			continue
		}
		if _, err := q.grant(n); !errors.Is(err, ErrCreditMismatch) {
			return fmt.Errorf("hostile grant of %d against parked %q: error %v, want ErrCreditMismatch", n, s.parked, err)
		}
		if encodeParked(q) != s.parked {
			return fmt.Errorf("hostile grant of %d changed the parked frames %q to %q", n, s.parked, encodeParked(q))
		}
		to := s
		to.hostile, to.aborted = true, true
		emit(to, true)
	}
	return nil
}

// senderSteps are the sending tasks' flushes and EOF markers.
func (c *creditChecker) senderSteps(s wcState, emit func(wcState, bool)) {
	for i := 0; i < wcSenders; i++ {
		if s.eofSent[i] {
			continue
		}
		if slot, ok := c.sender(s).vacant(i); ok && int(s.batches[i]) < c.batches {
			for n := int64(1); n <= c.capacity; n++ {
				q := c.sender(s)
				req := q.park(i, slot, n)
				to := s
				to.parked = encodeParked(q)
				to.data += string([]byte{wcReq, byte(i), byte(req)})
				to.batches[i]++
				emit(to, false)
			}
		}
		if c.sender(s).mark(i) {
			to := s
			to.eofSent[i] = true
			to.data += string([]byte{wcEOF, byte(i), 0})
			emit(to, false)
		}
	}
}

// receiverSteps are the receiving worker's: its reader taking the next frame
// off the data stream, the grantor popping and acquiring, and the task
// dequeuing from a channel.
func (c *creditChecker) receiverSteps(s wcState, emit func(wcState, bool)) error {
	if len(s.data) > 0 {
		kind, from, n := s.data[0], int(s.data[1]), int64(s.data[2])
		to := s
		to.data = s.data[3:]
		g := c.receiver(s)
		switch kind {
		case wcReq:
			if err := g.request(n); err != nil {
				return fmt.Errorf("request of %d refused: %v", n, err)
			}
		case wcData:
			if s.eofIn[from] {
				return fmt.Errorf("DATA from sender %d arrived after its EOF", from)
			}
			g.arrived(n)
			to.inbox[from] += string([]byte{byte(n)})
		case wcEOF:
			to.eofIn[from] = true
			to.inbox[from] += "\x00"
			if to.eofIn[0] && to.eofIn[1] && !s.hostile && !s.peerDown && g.outstanding != 0 {
				return fmt.Errorf("conservation: %d credits outstanding at the sending worker's last EOF", g.outstanding)
			}
		}
		to.reqs, to.out = encodeReqs(g), g.outstanding
		emit(to, false)
	}
	if s.acq == 0 {
		if g := c.receiver(s); len(g.reqs) > 0 {
			n, _ := g.next()
			to := s
			to.reqs, to.acq = encodeReqs(g), byte(n)
			emit(to, false)
		}
	} else if gate := c.gate(s); gate.avail.Load() >= int64(s.acq) {
		if ok, _ := gate.acquire(int64(s.acq), nil); !ok {
			return fmt.Errorf("acquire of %d failed with %d available", s.acq, s.avail)
		}
		to := s
		if !s.peerDown {
			g := c.receiver(s)
			g.granted(int64(s.acq))
			to.out = g.outstanding
			to.grants += string([]byte{s.acq})
		} else {
			gate.release(int64(s.acq)) // the CREDIT's send fails: the grant goes back
		}
		to.avail, to.acq = gate.avail.Load(), 0
		emit(to, false)
	}
	for i := 0; i < wcSenders; i++ {
		if len(s.inbox[i]) == 0 {
			continue
		}
		to := s
		to.inbox[i] = s.inbox[i][1:]
		if n := int64(s.inbox[i][0]); n == 0 {
			to.eofDone[i] = true
		} else {
			gate := c.gate(s)
			gate.release(n)
			to.avail = gate.avail.Load()
		}
		emit(to, false)
	}
	return nil
}

// grantArrives is the sending worker's reader taking the next CREDIT: it
// ships the frame buffer the grant names, holding the records of the frame
// parked in it — exactly the oldest parked frame — also after an abort, into
// a queue nobody writes any more.
func (c *creditChecker) grantArrives(s wcState, emit func(wcState, bool)) error {
	if len(s.grants) == 0 {
		return nil
	}
	q := c.sender(s)
	p, err := q.grant(int64(s.grants[0]))
	if err != nil {
		return fmt.Errorf("a grant the receiver sent was refused: %v", err)
	}
	to := s
	to.grants = s.grants[1:]
	to.parked = encodeParked(q)
	if !s.aborted {
		to.data += string([]byte{wcData, byte(p.key), bufferRecords(s.parked, p.key, p.slot)})
	} else if !s.peerDown {
		c.grantAfterAbort++
	}
	emit(to, false)
	return nil
}

// check asserts the state properties of s.
func (c *creditChecker) check(s wcState) error {
	var wire, granted, inbox int64
	for i := 0; i < len(s.data); i += 3 {
		if s.data[i] == wcData {
			wire += int64(s.data[i+2])
		}
	}
	for i := 0; i < len(s.grants); i++ {
		granted += int64(s.grants[i])
	}
	for _, q := range s.inbox {
		for i := 0; i < len(q); i++ {
			inbox += int64(q[i])
		}
	}
	acquired := c.capacity - s.avail
	if wire+granted+inbox > acquired || acquired > c.capacity {
		return fmt.Errorf("bound: %d records shipped or granted against %d credits acquired from a gate of %d",
			wire+granted+inbox, acquired, c.capacity)
	}
	if !s.aborted && !s.peerDown {
		if s.avail+granted+wire+inbox != c.capacity {
			return fmt.Errorf("conservation: gate %d + grants %d + wire %d + inbox %d != %d",
				s.avail, granted, wire, inbox, c.capacity)
		}
		if s.out != granted+wire {
			return fmt.Errorf("conservation: %d outstanding, but %d granted and %d on the wire", s.out, granted, wire)
		}
	}
	if s.done() && (s.avail != c.capacity || s.out != 0 || s.parked != "" || s.reqs != "") {
		return fmt.Errorf("conservation: every EOF delivered with gate %d of %d, %d outstanding, parked %q, requests %q",
			s.avail, c.capacity, s.out, s.parked, s.reqs)
	}
	if s.aborted && s.acq > 0 && s.avail < int64(s.acq) {
		// The grantor is blocked in the gate: teardown closes the attempt's
		// stop channel, and the real acquire must return on it.
		stop := make(chan struct{})
		close(stop)
		if ok, _ := c.gate(s).acquire(int64(s.acq), stop); ok {
			return fmt.Errorf("termination: acquire of %d with %d available succeeded", s.acq, s.avail)
		}
	}
	return nil
}
