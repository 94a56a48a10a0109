package engine

import "fmt"

// JoinFunc combines a left and right record that share a key (and, for the
// tumbling join, a window).
type JoinFunc func(left, right Record) (Record, bool)

// joinBuffer is how both joins keep records in list state: one state record
// (wirecodec.go: appendStateRecord) per buffered record, so a value comes
// back from state — after a restore or a rescale too — with the Go type it
// went in with. A value with no wire codec cannot be buffered and a stored
// entry that does not decode cannot be joined; both fail the task.
type joinBuffer struct {
	ctx *TaskContext
	buf []byte // encode scratch; Append copies
}

func (b *joinBuffer) add(sk string, side int, rec Record) error {
	var err error
	if b.buf, err = appendStateRecord(b.buf[:0], side, rec); err != nil {
		return fmt.Errorf("engine: join state for key %q: %w", rec.Key, err)
	}
	b.ctx.State.Append(sk, b.buf)
	return nil
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
	o.ends = make(windowIndex)
	return o.ends.rebuild(ctx.State, o.size)
}

func (o *tumblingJoinOp) Process(rec Record, in int, emit Emit) error {
	if in != 0 && in != 1 {
		return fmt.Errorf("engine: window join input %d out of range", in)
	}
	start := rec.Time - rec.Time%o.size
	if err := o.add(winKey(rec.Key, start), in, rec); err != nil {
		return err
	}
	o.ends.add(start+o.size, rec.Key)
	return o.fire(o.ctx.Watermark(), emit)
}

func (o *tumblingJoinOp) fire(watermark int64, emit Emit) error {
	return o.ends.fire(watermark, func(end int64, key string) error {
		sk := winKey(key, end-o.size)
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
// inputs are kept in per-key list state, and each arriving record
// immediately joins against all buffered records of the opposite side (the
// "incremental join" of Nexmark Q3 / the paper's Q4-join). State grows with
// the stream; an optional per-key cap bounds it like a TTL would.
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

// sideKey is the storage key of one (record key, input side) buffer.
func sideKey(key string, side int) string {
	if side == 0 {
		return key + "\x00s0"
	}
	return key + "\x00s1"
}

func (o *incrementalJoinOp) Process(rec Record, in int, emit Emit) error {
	if in != 0 && in != 1 {
		return fmt.Errorf("engine: incremental join input %d out of range", in)
	}
	// Join against the opposite side's buffer.
	if err := o.each(sideKey(rec.Key, 1-in), func(_ int, peer Record) {
		l, r := rec, peer
		if in == 1 {
			l, r = peer, rec
		}
		if out, ok := o.fn(l, r); ok {
			emit(out)
		}
	}); err != nil {
		return err
	}
	// Buffer this record for future matches.
	mine := sideKey(rec.Key, in)
	if o.perKeyCap > 0 && len(o.ctx.State.List(mine)) >= o.perKeyCap {
		return nil // bounded state: drop the oldest semantics simplified to drop-new
	}
	return o.add(mine, in, rec)
}

func (o *incrementalJoinOp) Close(Emit) error { return nil }
