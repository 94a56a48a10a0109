package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"capsys/internal/statebackend"
)

// Record is one stream element.
type Record struct {
	// Key selects the partition for hash-partitioned edges; an empty key
	// round-robins.
	Key string
	// Value is the payload.
	Value any
	// Time is the event time in milliseconds.
	Time int64
	// Size is the serialized size in bytes, used for network accounting
	// (0 means DefaultRecordSize).
	Size int
}

// DefaultRecordSize is assumed when Record.Size is zero.
const DefaultRecordSize = 100

// Emit is the output callback handed to operators. It may block under
// backpressure.
type Emit func(Record)

// TaskContext gives an operator instance access to its runtime environment.
type TaskContext struct {
	// Op and Index identify the task.
	Op    string
	Index int
	// Parallelism is the operator's task count.
	Parallelism int
	// State is the task's keyspace in the worker's state backend; nil for
	// operators declared stateless.
	State *statebackend.Namespace
	// Watermark returns the task's current event-time watermark.
	Watermark func() int64
}

// Operator is the processing interface for non-source operators. Operators
// are used by exactly one task goroutine; they need no internal locking.
type Operator interface {
	// Open prepares the instance.
	Open(ctx *TaskContext) error
	// Process handles one record from input index in (the position of the
	// upstream operator in the logical graph's Upstream list).
	Process(rec Record, in int, emit Emit) error
	// Close flushes remaining results (e.g. open windows) at end of input.
	Close(emit Emit) error
}

// Source generates records. Run must return after emitting all records (the
// runtime applies rate limiting and cancellation around emit).
type Source interface {
	Open(ctx *TaskContext) error
	// Next produces the i-th record of this task (i starts at 0) and
	// reports whether a record was produced. Returning false ends the
	// source.
	Next(i int64) (Record, bool)
}

// Factory builds the per-task operator instance for an operator ID.
type Factory func(ctx *TaskContext) (any, error)

// --- Functional operators -------------------------------------------------

// MapFunc transforms one record into another.
type MapFunc func(Record) Record

// FilterFunc keeps records for which it returns true.
type FilterFunc func(Record) bool

// FlatMapFunc emits zero or more records per input.
type FlatMapFunc func(Record, Emit)

type mapOp struct{ fn MapFunc }

func (o *mapOp) Open(*TaskContext) error { return nil }
func (o *mapOp) Process(rec Record, _ int, emit Emit) error {
	emit(o.fn(rec))
	return nil
}
func (o *mapOp) Close(Emit) error { return nil }

// NewMap wraps fn as an Operator.
func NewMap(fn MapFunc) Operator { return &mapOp{fn: fn} }

type filterOp struct{ fn FilterFunc }

func (o *filterOp) Open(*TaskContext) error { return nil }
func (o *filterOp) Process(rec Record, _ int, emit Emit) error {
	if o.fn(rec) {
		emit(rec)
	}
	return nil
}
func (o *filterOp) Close(Emit) error { return nil }

// NewFilter wraps fn as an Operator.
func NewFilter(fn FilterFunc) Operator { return &filterOp{fn: fn} }

type flatMapOp struct{ fn FlatMapFunc }

func (o *flatMapOp) Open(*TaskContext) error { return nil }
func (o *flatMapOp) Process(rec Record, _ int, emit Emit) error {
	o.fn(rec, emit)
	return nil
}
func (o *flatMapOp) Close(Emit) error { return nil }

// NewFlatMap wraps fn as an Operator.
func NewFlatMap(fn FlatMapFunc) Operator { return &flatMapOp{fn: fn} }

// --- Sink -----------------------------------------------------------------

// SinkFunc consumes terminal records.
type SinkFunc func(Record)

type sinkOp struct{ fn SinkFunc }

func (o *sinkOp) Open(*TaskContext) error { return nil }
func (o *sinkOp) Process(rec Record, _ int, _ Emit) error {
	if o.fn != nil {
		o.fn(rec)
	}
	return nil
}
func (o *sinkOp) Close(Emit) error { return nil }

// NewSink wraps fn (which may be nil to discard records) as an Operator.
func NewSink(fn SinkFunc) Operator { return &sinkOp{fn: fn} }

// --- Windows ----------------------------------------------------------------

// AggFunc folds a record into an accumulator (JSON-encoded in state).
type AggFunc func(acc []byte, rec Record) []byte

// WindowResultFunc turns a closed window's accumulator into an output
// record.
type WindowResultFunc func(key string, windowStart, windowEnd int64, acc []byte) Record

// winKey is the storage key of one (record key, window start) pair. The NUL
// keeps every window of a record key in that key's key-group (statebackend
// partitions a storage key on the prefix before its first NUL).
func winKey(key string, start int64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(start))
	return key + "\x00" + string(b[:])
}

// splitWinKey is winKey's inverse. It reads the start from the last 8 bytes,
// so it does not depend on what the record key contains.
func splitWinKey(sk string) (key string, start int64, ok bool) {
	n := len(sk) - 9
	if n < 0 || sk[n] != 0 {
		return "", 0, false
	}
	return sk[:n], int64(binary.BigEndian.Uint64([]byte(sk[n+1:]))), true
}

// windowIndex is the firing index of a windowed operator: the open window
// ends and, per end, the record keys holding state in that window. It is
// derived state — an (end, key) entry exists exactly when winKey(key,
// end-size) is stored — so a task rebuilds it from its namespace in Open
// (the runtime restores the namespace first) and it is never snapshotted or
// repartitioned on its own.
type windowIndex map[int64]map[string]bool

func (x windowIndex) add(end int64, key string) {
	if x[end] == nil {
		x[end] = make(map[string]bool)
	}
	x[end][key] = true
}

// rebuild indexes every window the namespace holds; size is the window
// length. A storage key that is not a window key fails the task.
func (x windowIndex) rebuild(ns *statebackend.Namespace, size int64) error {
	var err error
	ns.Scan(func(sk string, _ []byte) {
		if key, start, ok := splitWinKey(sk); ok {
			x.add(start+size, key)
		} else if err == nil {
			err = fmt.Errorf("engine: state key %q is not a window key", sk)
		}
	})
	return err
}

// fire calls each, in (end, key) order, for every indexed window the
// watermark has passed, and drops those windows from the index.
func (x windowIndex) fire(watermark int64, each func(end int64, key string) error) error {
	var fired []int64
	for end := range x {
		if end <= watermark {
			fired = append(fired, end)
		}
	}
	sort.Slice(fired, func(i, j int) bool { return fired[i] < fired[j] })
	for _, end := range fired {
		keys := make([]string, 0, len(x[end]))
		for k := range x[end] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if err := each(end, key); err != nil {
				return err
			}
		}
		delete(x, end)
	}
	return nil
}

// endOfInput is the watermark Close fires with: past every window.
const endOfInput = 1 << 62

// slidingWindowOp implements a keyed event-time sliding window aggregate.
// Accumulators live in the state backend, one per (key, window-start).
type slidingWindowOp struct {
	size, slide int64 // ms
	agg         AggFunc
	result      WindowResultFunc
	ctx         *TaskContext
	ends        windowIndex
}

// NewSlidingWindow creates a keyed sliding window aggregate (sizeMS window
// length, slideMS hop). Tumbling windows are sliding windows with
// slide == size.
func NewSlidingWindow(sizeMS, slideMS int64, agg AggFunc, result WindowResultFunc) Operator {
	return &slidingWindowOp{size: sizeMS, slide: slideMS, agg: agg, result: result}
}

func (o *slidingWindowOp) Open(ctx *TaskContext) error {
	if ctx.State == nil {
		return fmt.Errorf("engine: sliding window requires state")
	}
	if o.size <= 0 || o.slide <= 0 || o.slide > o.size {
		return fmt.Errorf("engine: invalid window size=%d slide=%d", o.size, o.slide)
	}
	o.ctx = ctx
	o.ends = make(windowIndex)
	return o.ends.rebuild(ctx.State, o.size)
}

func (o *slidingWindowOp) Process(rec Record, _ int, emit Emit) error {
	// Assign the record to every window containing its timestamp.
	first := rec.Time - rec.Time%o.slide // start of the window beginning at/just before rec.Time
	for start := first; start > rec.Time-o.size; start -= o.slide {
		if start < 0 {
			break
		}
		sk := winKey(rec.Key, start)
		acc, _ := o.ctx.State.Get(sk)
		o.ctx.State.Put(sk, o.agg(acc, rec))
		o.ends.add(start+o.size, rec.Key)
	}
	return o.fire(o.ctx.Watermark(), emit)
}

func (o *slidingWindowOp) fire(watermark int64, emit Emit) error {
	return o.ends.fire(watermark, func(end int64, key string) error {
		start := end - o.size
		sk := winKey(key, start)
		if acc, ok := o.ctx.State.Get(sk); ok {
			emit(o.result(key, start, end, acc))
			o.ctx.State.Delete(sk)
		}
		return nil
	})
}

func (o *slidingWindowOp) Close(emit Emit) error { return o.fire(endOfInput, emit) }

// sessionWindowOp implements keyed event-time session windows with a gap
// timeout: a session closes when no record for its key arrives within gap.
// A session's namespace entry, under the record key, is its bounds followed
// by the accumulator — start(8) last(8) acc, big-endian — so the bounds move
// with the key's key-group and `open` is only an index over the namespace,
// rebuilt in Open.
type sessionWindowOp struct {
	gap    int64
	agg    AggFunc
	result WindowResultFunc
	ctx    *TaskContext
	// open sessions: key -> [start, lastSeen]
	open map[string][2]int64
	buf  []byte // entry scratch; Put copies
}

// sessionBounds is the length of the bounds in front of a session's
// accumulator.
const sessionBounds = 16

// NewSessionWindow creates a keyed session window aggregate with the given
// inactivity gap in milliseconds.
func NewSessionWindow(gapMS int64, agg AggFunc, result WindowResultFunc) Operator {
	return &sessionWindowOp{gap: gapMS, agg: agg, result: result}
}

func (o *sessionWindowOp) Open(ctx *TaskContext) error {
	if ctx.State == nil {
		return fmt.Errorf("engine: session window requires state")
	}
	if o.gap <= 0 {
		return fmt.Errorf("engine: invalid session gap %d", o.gap)
	}
	o.ctx = ctx
	o.open = make(map[string][2]int64)
	var err error
	ctx.State.Scan(func(key string, entry []byte) {
		if len(entry) >= sessionBounds {
			o.open[key] = [2]int64{
				int64(binary.BigEndian.Uint64(entry)),
				int64(binary.BigEndian.Uint64(entry[8:])),
			}
		} else if err == nil {
			err = fmt.Errorf("engine: state entry %q is not a session (%d bytes)", key, len(entry))
		}
	})
	return err
}

// acc returns the accumulator of key's stored session; nil if there is none
// or it is empty, which is what an AggFunc takes for "no accumulator yet".
func (o *sessionWindowOp) acc(key string) []byte {
	if entry, _ := o.ctx.State.Get(key); len(entry) > sessionBounds {
		return entry[sessionBounds:]
	}
	return nil
}

func (o *sessionWindowOp) Process(rec Record, _ int, emit Emit) error {
	sess, ok := o.open[rec.Key]
	if ok && rec.Time-sess[1] > o.gap {
		o.close(rec.Key, sess, emit)
		ok = false
	}
	if !ok {
		sess = [2]int64{rec.Time, rec.Time}
	}
	if rec.Time > sess[1] {
		sess[1] = rec.Time
	}
	o.open[rec.Key] = sess
	acc := o.agg(o.acc(rec.Key), rec)
	o.buf = binary.BigEndian.AppendUint64(o.buf[:0], uint64(sess[0]))
	o.buf = binary.BigEndian.AppendUint64(o.buf, uint64(sess[1]))
	o.buf = append(o.buf, acc...)
	o.ctx.State.Put(rec.Key, o.buf)

	// Expire idle sessions as the watermark advances.
	wm := o.ctx.Watermark()
	for k, s := range o.open {
		if k != rec.Key && wm-s[1] > o.gap {
			o.close(k, s, emit)
		}
	}
	return nil
}

func (o *sessionWindowOp) close(key string, sess [2]int64, emit Emit) {
	emit(o.result(key, sess[0], sess[1], o.acc(key)))
	o.ctx.State.Delete(key)
	delete(o.open, key)
}

func (o *sessionWindowOp) Close(emit Emit) error {
	keys := make([]string, 0, len(o.open))
	for k := range o.open {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		o.close(k, o.open[k], emit)
	}
	return nil
}

// ProcessFunc is a general stateful per-record function with state access.
type ProcessFunc func(ctx *TaskContext, rec Record, emit Emit) error

type processOp struct {
	fn  ProcessFunc
	ctx *TaskContext
}

func (o *processOp) Open(ctx *TaskContext) error { o.ctx = ctx; return nil }
func (o *processOp) Process(rec Record, _ int, emit Emit) error {
	return o.fn(o.ctx, rec, emit)
}
func (o *processOp) Close(Emit) error { return nil }

// NewProcess wraps a stateful per-record function as an Operator.
func NewProcess(fn ProcessFunc) Operator { return &processOp{fn: fn} }

// --- Sources ---------------------------------------------------------------

// GeneratorFunc produces the i-th record of a source task.
type GeneratorFunc func(task, i int64) (Record, bool)

type funcSource struct {
	fn   GeneratorFunc
	task int64
}

func (s *funcSource) Open(ctx *TaskContext) error {
	s.task = int64(ctx.Index)
	return nil
}
func (s *funcSource) Next(i int64) (Record, bool) { return s.fn(s.task, i) }

// NewSource wraps fn as a Source; fn receives the task index and the record
// sequence number.
func NewSource(fn GeneratorFunc) Source { return &funcSource{fn: fn} }
