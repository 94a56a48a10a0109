package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestAlignmentProtocol checks barrier alignment exhaustively: every
// interleaving in which one task dequeues from 2 or 3 input channels, each
// carrying the same script — per epoch (at most 2) one or two records and its
// barrier, then as many records again — with an EOF possible on any channel
// at any point, or never. Each step drives the real aligner of alignment.go;
// what runOperator does around it — dequeuing, processing, checkpointing — is
// modelled here. A data message is a data message to the machine whether it
// is one record or a batch, so the model's are single records. Every message
// is numbered by its position on its channel, and every reachable state and
// step is checked for:
//
//  1. Snapshots: checkpoint e covers exactly the records before barrier e on
//     every channel, and every record of a channel that ended before
//     delivering barrier e.
//  2. FIFO: the task takes each channel's messages in channel order, across
//     holds and releases.
//  3. Checkpoints: each epoch is checkpointed exactly once, in order, and
//     a barrier is never handed to the operator as data, so downstream sees
//     barrier e only through the checkpoint step, which snapshots first.
//  4. No deadlock: once every channel has ended — with an EOF, or without
//     one after its whole script — nothing is held, every epoch any channel
//     delivered is checkpointed, every message was taken, and the machine
//     said done exactly when every channel sent EOF.
//  5. The hold: a message is held only on a channel aligned on the in-flight
//     barrier, and only if it came after that barrier; and a barrier is in
//     flight exactly when some channel is aligned. That is the whole bound:
//     the credit gates do not bound the hold, since a batch's credits return
//     when it is dequeued, held or not, so an aligned channel's sender keeps
//     filling the hold until the slowest channel's barrier arrives. maxHeld
//     pins the largest hold reached: all of the aligned channels' remaining
//     streams, records and markers.
//
// One state once broke FIFO and is a named case that must be reached: an
// alignment completed by a barrier taken from the released queue, with
// messages held behind it — reachable only once some channel has ended
// early, so three channels and two epochs. The held messages came off the
// queue's front, so they go back ahead of what is still queued; released
// behind it, a channel's EOF was taken before its last record. The number of
// distinct states explored is pinned per configuration, so a refactor that
// quietly shrinks the explored space fails here. Three channels at two epochs
// of two records is 426 k states and near 2 s, so it is left out.
func TestAlignmentProtocol(t *testing.T) {
	// states is the distinct states explored and maxHeld the largest hold in
	// messages; a change to the machine or to the model moves them, and the
	// change must say why.
	for _, cfg := range []struct {
		channels, epochs, records int
		states, maxHeld           int
	}{
		{2, 1, 1, 88, 2},
		{2, 2, 1, 264, 4},
		{2, 2, 2, 684, 6},
		{3, 1, 1, 1316, 4},
		{3, 2, 1, 22398, 8},
		{3, 1, 2, 7971, 6},
	} {
		name := fmt.Sprintf("channels%d/epochs%d/records%d", cfg.channels, cfg.epochs, cfg.records)
		t.Run(name, func(t *testing.T) {
			c := &alignChecker{channels: cfg.channels, epochs: cfg.epochs, records: cfg.records, seen: make(map[alState]struct{})}
			if err := c.explore(); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d states, %d steps, %d quiescent; largest hold %d messages; release into the queue %d times",
				len(c.seen), c.steps, c.quiescent, c.maxHeld, c.releaseIntoQueue)
			if cfg.channels == 3 && cfg.epochs == 2 && c.releaseIntoQueue == 0 {
				t.Error("named case not reached: an alignment completed from the released queue while messages were held")
			}
			if len(c.seen) != cfg.states {
				t.Errorf("explored %d distinct states, want %d", len(c.seen), cfg.states)
			}
			if c.maxHeld != cfg.maxHeld {
				t.Errorf("largest hold %d messages, want %d", c.maxHeld, cfg.maxHeld)
			}
		})
	}
}

const alMaxChannels = 3

// alState is one global state of the model, comparable so it can key the
// visited set. held and queue are the machine's messages as (channel,
// position) byte pairs; a channel's EOF is numbered by the script items
// delivered before it.
type alState struct {
	pos    [alMaxChannels]uint8 // script items delivered per channel
	eof    [alMaxChannels]bool  // EOF delivered
	taken  [alMaxChannels]uint8 // messages the task took per channel: processed, or a marker consumed
	status [alMaxChannels]chanStatus
	epoch  uint8 // the machine's barrier in flight
	held   string
	queue  string
	ckpt   uint8 // last epoch checkpointed
	done   bool  // the machine said every channel is exhausted
}

func (s alState) String() string {
	return fmt.Sprintf("delivered %v eof %v taken %v | status %v in flight %d held %s queue %s | checkpointed %d done %v",
		s.pos, s.eof, s.taken, s.status, s.epoch, alMsgs(s.held), alMsgs(s.queue), s.ckpt, s.done)
}

func alMsgs(q string) string {
	var b strings.Builder
	for i := 0; i < len(q); i += 2 {
		fmt.Fprintf(&b, "%d:%d ", q[i], q[i+1])
	}
	return "[" + strings.TrimSpace(b.String()) + "]"
}

type alignChecker struct {
	channels, epochs, records int
	seen                      map[alState]struct{}
	steps, quiescent          int
	maxHeld                   int
	releaseIntoQueue          int // alignments completed with messages both held and queued
}

// The script every channel carries: per epoch, records then its barrier, and
// records after the last barrier — c.records of them each time. Item i is a
// barrier when i+1 is a multiple of records+1.
func (c *alignChecker) scriptLen() int { return (c.epochs+1)*(c.records+1) - 1 }

// epochOf is the epoch item i belongs to: a barrier's own, a record's the one
// its next barrier closes.
func (c *alignChecker) epochOf(i int) int { return i/(c.records+1) + 1 }

func (c *alignChecker) isBarrier(i int) bool     { return (i+1)%(c.records+1) == 0 }
func (c *alignChecker) barrierPos(epoch int) int { return epoch*(c.records+1) - 1 }
func (c *alignChecker) barriersIn(items int) int { return items / (c.records + 1) }
func (c *alignChecker) recordsIn(items int) int  { return items - c.barriersIn(items) }

// msg is the real message at position i of channel ch in s; the model's
// position rides in msg.in, which the machine never reads.
func (c *alignChecker) msg(s *alState, ch, i int) message {
	m := message{ch: ch, in: i}
	if s.eof[ch] && i == int(s.pos[ch]) {
		m.eof = true
	} else if c.isBarrier(i) {
		m.barrier, m.epoch = true, int64(c.epochOf(i))
	}
	return m
}

// machine is the real aligner a state stands for.
func (c *alignChecker) machine(s *alState) *aligner {
	m := newAligner(c.channels)
	copy(m.status, s.status[:c.channels])
	m.epoch = int64(s.epoch)
	for i := 0; i < len(s.held); i += 2 {
		m.held = append(m.held, c.msg(s, int(s.held[i]), int(s.held[i+1])))
	}
	for i := 0; i < len(s.queue); i += 2 {
		m.queue = append(m.queue, c.msg(s, int(s.queue[i]), int(s.queue[i+1])))
	}
	return &m
}

func alEncode(q []message) string {
	b := make([]byte, 0, 2*len(q))
	for _, m := range q {
		b = append(b, byte(m.ch), byte(m.in))
	}
	return string(b)
}

// explore runs a breadth-first search from the initial state and returns the
// first property violation, naming the state it was found in.
func (c *alignChecker) explore() error {
	var start alState
	c.seen[start] = struct{}{}
	for frontier := []alState{start}; len(frontier) > 0; {
		var next []alState
		for _, s := range frontier {
			if err := c.check(&s); err != nil {
				return fmt.Errorf("%v\n  in %v", err, s)
			}
			err := c.successors(s, func(to alState) {
				c.steps++
				if _, ok := c.seen[to]; !ok {
					c.seen[to] = struct{}{}
					next = append(next, to)
				}
			})
			if err != nil {
				return fmt.Errorf("%v\n  from %v", err, s)
			}
		}
		frontier = next
	}
	return nil
}

// successors calls emit with every state one step from s: the task takes the
// oldest released message while there is one, and otherwise dequeues the
// next message any channel delivers — its next script item, or its EOF.
func (c *alignChecker) successors(s alState, emit func(alState)) error {
	if s.done {
		return nil // the task's loop has returned
	}
	if len(s.queue) > 0 {
		m := c.machine(&s)
		msg, _ := m.next()
		return c.offer(s, m, msg, emit)
	}
	for ch := 0; ch < c.channels; ch++ {
		if s.eof[ch] {
			continue
		}
		if int(s.pos[ch]) < c.scriptLen() {
			to := s
			to.pos[ch]++
			if err := c.offer(to, c.machine(&s), c.msg(&to, ch, int(s.pos[ch])), emit); err != nil {
				return err
			}
		}
		to := s
		to.eof[ch] = true
		if err := c.offer(to, c.machine(&s), c.msg(&to, ch, int(s.pos[ch])), emit); err != nil {
			return err
		}
	}
	return nil
}

// offer hands msg to the machine m of state s, checks the action it returns
// and emits the state that follows.
func (c *alignChecker) offer(s alState, m *aligner, msg message, emit func(alState)) error {
	held, queued := len(m.held), len(m.queue)
	act, epoch := m.offer(&msg)
	ch, i := msg.ch, msg.in
	if act != alignHold {
		if i != int(s.taken[ch]) {
			return fmt.Errorf("FIFO: took message %d of channel %d with %d taken", i, ch, s.taken[ch])
		}
		s.taken[ch]++
	}
	marker := msg.barrier || msg.eof
	switch act {
	case alignProcess:
		if marker {
			return fmt.Errorf("checkpoints: marker %d of channel %d handed to the operator as data", i, ch)
		}
		if e := c.epochOf(i); e != int(s.ckpt)+1 {
			return fmt.Errorf("snapshots: record %d of channel %d (epoch %d) processed with epoch %d checkpointed", i, ch, e, s.ckpt)
		}
	case alignHold:
	case alignNone:
		if !marker {
			return fmt.Errorf("checkpoints: record %d of channel %d taken but not processed", i, ch)
		}
	case alignCheckpoint:
		if !marker {
			return fmt.Errorf("checkpoints: record %d of channel %d completed an alignment", i, ch)
		}
		if epoch != int64(s.ckpt)+1 {
			return fmt.Errorf("checkpoints: epoch %d checkpointed after epoch %d", epoch, s.ckpt)
		}
		if err := c.snapshot(&s, int(epoch)); err != nil {
			return err
		}
		if held > 0 && queued > 0 {
			c.releaseIntoQueue++
		}
		s.ckpt = uint8(epoch)
	case alignDone:
		if !msg.eof {
			return fmt.Errorf("no deadlock: done on message %d of channel %d, not an EOF", i, ch)
		}
		for k := 0; k < c.channels; k++ {
			if !s.eof[k] {
				return fmt.Errorf("no deadlock: done with channel %d open", k)
			}
		}
		if len(m.held) > 0 || len(m.queue) > 0 {
			return fmt.Errorf("no deadlock: done with %d held and %d queued messages dropped", len(m.held), len(m.queue))
		}
		s.done = true
	}
	copy(s.status[:], m.status)
	s.epoch = uint8(m.epoch)
	s.held, s.queue = alEncode(m.held), alEncode(m.queue)
	emit(s)
	return nil
}

// snapshot checks checkpoint e of s against every channel: the records the
// task processed on it are exactly those before its barrier e, or all of
// them if it ended without one.
func (c *alignChecker) snapshot(s *alState, e int) error {
	for ch := 0; ch < c.channels; ch++ {
		want := 0
		switch {
		case int(s.pos[ch]) > c.barrierPos(e):
			want = c.recordsIn(c.barrierPos(e))
		case s.eof[ch]:
			want = c.recordsIn(int(s.pos[ch]))
		default:
			return fmt.Errorf("snapshots: epoch %d checkpointed with channel %d neither aligned nor exhausted", e, ch)
		}
		if got := c.recordsIn(min(int(s.taken[ch]), int(s.pos[ch]))); got != want {
			return fmt.Errorf("snapshots: epoch %d covers %d records of channel %d, want %d", e, got, ch, want)
		}
	}
	return nil
}

// check asserts the state properties of s.
func (c *alignChecker) check(s *alState) error {
	c.maxHeld = max(c.maxHeld, len(s.held)/2)
	aligned := false
	for ch := 0; ch < c.channels; ch++ {
		aligned = aligned || s.status[ch] == chanAligned
	}
	if aligned != (s.epoch != 0) {
		return fmt.Errorf("the hold: barrier in flight %d with a channel aligned %v", s.epoch, aligned)
	}
	for i := 0; i < len(s.held); i += 2 {
		ch, p := int(s.held[i]), int(s.held[i+1])
		if s.status[ch] != chanAligned || p <= c.barrierPos(int(s.epoch)) {
			return fmt.Errorf("the hold: message %d of channel %d held, not after the in-flight barrier %d of an aligned channel", p, ch, s.epoch)
		}
	}
	for ch := 0; ch < c.channels; ch++ {
		if !s.eof[ch] && int(s.pos[ch]) < c.scriptLen() {
			return nil // not quiescent: a channel has more to deliver
		}
	}
	if len(s.queue) > 0 {
		return nil
	}
	c.quiescent++
	if len(s.held) > 0 {
		return fmt.Errorf("no deadlock: every channel ended with %s held", alMsgs(s.held))
	}
	all, delivered := true, 0
	for ch := 0; ch < c.channels; ch++ {
		ended := int(s.pos[ch])
		if s.eof[ch] {
			ended++
		} else {
			all = false
		}
		if int(s.taken[ch]) != ended {
			return fmt.Errorf("no deadlock: channel %d ended after %d messages, %d taken", ch, ended, s.taken[ch])
		}
		delivered = max(delivered, c.barriersIn(int(s.pos[ch])))
	}
	if int(s.ckpt) != delivered {
		return fmt.Errorf("no deadlock: every channel ended with epoch %d checkpointed, %d delivered", s.ckpt, delivered)
	}
	if s.done != all {
		return fmt.Errorf("no deadlock: done %v with every channel's EOF delivered %v", s.done, all)
	}
	return nil
}
