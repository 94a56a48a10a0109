package engine

import "fmt"

// JoinFunc combines a left and right record that share a key (and, for the
// tumbling join, a window).
type JoinFunc func(left, right Record) (Record, bool)

// joinBuffer is how both joins keep records in list state: both inputs'
// records of one key (and window) in one list, one state record
// (wirecodec.go: appendStateRecord) per buffered record, opening with the
// input side it arrived on. A value comes back from state — after a restore
// or a rescale too — with the Go type it went in with. A value with no wire
// codec cannot be buffered and a stored entry that does not decode cannot be
// joined; both fail the task.
type joinBuffer struct {
	ctx *TaskContext
	buf []byte // encode scratch; Append copies
}

// add buffers rec under sk and reports whether sk's list is new.
func (b *joinBuffer) add(sk string, side int, rec Record) (fresh bool, err error) {
	if b.buf, err = appendStateRecord(b.buf[:0], side, rec); err != nil {
		return false, fmt.Errorf("engine: join state for key %q: %w", rec.Key, err)
	}
	return b.ctx.State.Append(sk, b.buf), nil
}

// each decodes the records buffered under sk, in insertion order.
func (b *joinBuffer) each(sk string, fn func(side int, rec Record)) error {
	for i, buf := range b.ctx.State.List(sk) {
		side, rec, err := decodeStateRecord(buf)
		if err != nil {
			return fmt.Errorf("engine: join state %q entry %d: %w", sk, i, err)
		}
		fn(side, rec)
	}
	return nil
}

// tumblingJoinOp implements a keyed tumbling-window two-input join: records
// from inputs 0 and 1 are buffered in list state per (key, window); when a
// window closes, the cross product of matching pairs is emitted.
type tumblingJoinOp struct {
	joinBuffer
	size int64
	fn   JoinFunc
	ends windowIndex
}

// NewTumblingWindowJoin creates a keyed tumbling-window join with the given
// window size in milliseconds.
func NewTumblingWindowJoin(sizeMS int64, fn JoinFunc) Operator {
	return &tumblingJoinOp{size: sizeMS, fn: fn}
}

func (o *tumblingJoinOp) Open(ctx *TaskContext) error {
	if ctx.State == nil {
		return fmt.Errorf("engine: window join requires state")
	}
	if o.size <= 0 {
		return fmt.Errorf("engine: invalid join window %d", o.size)
	}
	o.ctx = ctx
	o.ends = newWindowIndex()
	return o.ends.rebuild(ctx.State, o.size)
}

func (o *tumblingJoinOp) Process(rec Record, in int, emit Emit) error {
	if in != 0 && in != 1 {
		return fmt.Errorf("engine: window join input %d out of range", in)
	}
	start := rec.Time - rec.Time%o.size
	sk := winKey(rec.Key, start)
	fresh, err := o.add(sk, in, rec)
	if err != nil {
		return err
	}
	if fresh {
		o.ends.add(start+o.size, sk)
	}
	return o.fire(o.ctx.Watermark(), emit)
}

func (o *tumblingJoinOp) fire(watermark int64, emit Emit) error {
	return o.ends.fire(watermark, func(_ int64, sk string) error {
		var sides [2][]Record
		if err := o.each(sk, func(side int, rec Record) {
			sides[side] = append(sides[side], rec)
		}); err != nil {
			return err
		}
		for _, l := range sides[0] {
			for _, r := range sides[1] {
				if out, ok := o.fn(l, r); ok {
					emit(out)
				}
			}
		}
		o.ctx.State.ClearList(sk)
		return nil
	})
}

func (o *tumblingJoinOp) Close(emit Emit) error { return o.fire(endOfInput, emit) }

// incrementalJoinOp is a two-input streaming hash join: records from both
// inputs are kept in one list under the record key itself, and each arriving
// record immediately joins against all buffered records of the opposite side
// (the "incremental join" of Nexmark Q3 / the paper's Q4-join). State grows
// with the stream; an optional per-key cap bounds it like a TTL would.
type incrementalJoinOp struct {
	joinBuffer
	fn        JoinFunc
	perKeyCap int
}

// NewIncrementalJoin creates an incremental two-input join. perKeyCap
// bounds the number of records buffered per (key, side); 0 means unbounded.
func NewIncrementalJoin(fn JoinFunc, perKeyCap int) Operator {
	return &incrementalJoinOp{fn: fn, perKeyCap: perKeyCap}
}

func (o *incrementalJoinOp) Open(ctx *TaskContext) error {
	if ctx.State == nil {
		return fmt.Errorf("engine: incremental join requires state")
	}
	o.ctx = ctx
	return nil
}

// Process reads the key's list once. A state record's first byte is its
// side, so entries of the arriving record's own side are only counted, for
// perKeyCap, and the opposite side's are decoded and joined in the order
// they were buffered.
func (o *incrementalJoinOp) Process(rec Record, in int, emit Emit) error {
	if in != 0 && in != 1 {
		return fmt.Errorf("engine: incremental join input %d out of range", in)
	}
	mine := 0
	for i, buf := range o.ctx.State.List(rec.Key) {
		if len(buf) > 0 && int(buf[0]) == in {
			mine++
			continue
		}
		_, peer, err := decodeStateRecord(buf)
		if err != nil {
			return fmt.Errorf("engine: join state %q entry %d: %w", rec.Key, i, err)
		}
		l, r := rec, peer
		if in == 1 {
			l, r = peer, rec
		}
		if out, ok := o.fn(l, r); ok {
			emit(out)
		}
	}
	if o.perKeyCap > 0 && mine >= o.perKeyCap {
		return nil // bounded state: drop the oldest semantics simplified to drop-new
	}
	_, err := o.add(rec.Key, in, rec)
	return err
}

func (o *incrementalJoinOp) Close(Emit) error { return nil }
