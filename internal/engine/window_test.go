package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"capsys/internal/statebackend"
)

// opHarness drives one operator instance by hand, the way a single-input
// task would: its watermark is the latest event time seen, raised before the
// record is processed, and emitted records are collected in order.
type opHarness struct {
	t   *testing.T
	op  Operator
	ns  *statebackend.Namespace
	wm  int64
	out []Record
}

func newOpHarness(t *testing.T, op Operator, ns *statebackend.Namespace) *opHarness {
	t.Helper()
	h := &opHarness{t: t, op: op, ns: ns, wm: minInt64}
	if err := op.Open(&TaskContext{Op: "op", Parallelism: 1, State: ns, Watermark: func() int64 { return h.wm }}); err != nil {
		t.Fatal(err)
	}
	return h
}

func newNamespace() *statebackend.Namespace {
	return statebackend.NewStore(nil, statebackend.Options{}).Namespace("op")
}

func (h *opHarness) emit(r Record) { h.out = append(h.out, r) }

func (h *opHarness) process(rec Record, in int) {
	h.t.Helper()
	if rec.Time > h.wm {
		h.wm = rec.Time
	}
	if err := h.op.Process(rec, in, h.emit); err != nil {
		h.t.Fatal(err)
	}
}

func (h *opHarness) close() {
	h.t.Helper()
	if err := h.op.Close(h.emit); err != nil {
		h.t.Fatal(err)
	}
}

// index returns the operator's firing index: its storage keys per open end.
func (h *opHarness) index() map[int64][]string {
	switch op := h.op.(type) {
	case *slidingWindowOp:
		return op.ends.keys
	case *tumblingJoinOp:
		return op.ends.keys
	}
	h.t.Fatalf("%T has no firing index", h.op)
	return nil
}

// checkIndex fails unless the firing index lists exactly the storage keys the
// namespace holds, each once and under the end its window start gives.
func (h *opHarness) checkIndex(when string, size int64) {
	h.t.Helper()
	stored := map[string]bool{}
	h.ns.Scan(func(sk string, _ []byte) { stored[sk] = true })
	listed := map[string]bool{}
	for end, sks := range h.index() {
		for _, sk := range sks {
			_, start, ok := splitWinKey(sk)
			if !ok || start+size != end {
				h.t.Fatalf("%s: end %d lists %q, which is not one of its windows", when, end, sk)
			}
			if listed[sk] {
				h.t.Fatalf("%s: %q is listed twice", when, sk)
			}
			listed[sk] = true
		}
	}
	if !reflect.DeepEqual(listed, stored) {
		h.t.Fatalf("%s: the index lists %d storage keys, the namespace holds %d", when, len(listed), len(stored))
	}
}

// windowCases are the two operators sharing windowIndex, with their window
// length.
func windowCases() []struct {
	name string
	size int64
	op   func() Operator
} {
	pair := func(l, r Record) (Record, bool) {
		return Record{Key: l.Key, Value: [2]any{l.Value, r.Value}, Time: r.Time}, true
	}
	return []struct {
		name string
		size int64
		op   func() Operator
	}{
		{"sliding-window", 100, func() Operator { return NewSlidingWindow(100, 25, countAgg, countResult) }},
		{"tumbling-join", 50, func() Operator { return NewTumblingWindowJoin(50, pair) }},
	}
}

// TestWindowIndexMatchesState: whatever the operator has processed, its
// firing index lists exactly the window keys its namespace holds, each once —
// through windows that open, windows that fire, records that land late in a
// window that already fired, and the final flush.
func TestWindowIndexMatchesState(t *testing.T) {
	for _, c := range windowCases() {
		t.Run(c.name, func(t *testing.T) {
			h := newOpHarness(t, c.op(), newNamespace())
			late := 0
			for i := int64(0); i < 600; i++ {
				h.process(Record{Key: fmt.Sprintf("k%d", i*7%11), Value: i, Time: i}, int(i%2))
				h.checkIndex(fmt.Sprintf("record %d", i), c.size)
				if i%37 == 36 && i >= 2*c.size {
					// Every window this record belongs to has fired already: it
					// reopens state behind the watermark, which fires at once.
					h.process(Record{Key: "late", Value: i, Time: i - 2*c.size}, int(i%2))
					h.checkIndex(fmt.Sprintf("late record after %d", i), c.size)
					h.ns.Scan(func(sk string, _ []byte) {
						if key, _, _ := splitWinKey(sk); key == "late" {
							t.Fatalf("late record after %d: %q is still open", i, sk)
						}
					})
					late++
				}
			}
			if late == 0 || h.ns.Keys() == 0 {
				t.Fatalf("the stream sent %d late records and left %d windows open", late, h.ns.Keys())
			}
			h.close()
			h.checkIndex("after Close", c.size)
			if h.ns.Keys() != 0 || len(h.index()) != 0 {
				t.Fatalf("Close left %d keys and %d ends", h.ns.Keys(), len(h.index()))
			}
		})
	}
}

// TestWindowFiringDeterministic: the output sequence, order included, is a
// function of the input sequence — the keys of one window fire in the order
// the window first saw them — and of the restored image: a task restored in
// the middle of its windows fires the restored keys in key order.
func TestWindowFiringDeterministic(t *testing.T) {
	keys := []string{"k3", "k1", "k\x00z", "k2", "k1", "k0"}
	feed := func(h *opHarness, n int64) {
		for i := int64(0); i < n; i++ {
			h.process(Record{Key: keys[i%int64(len(keys))], Value: i, Time: i * 10}, 0)
		}
	}
	var first []Record
	for run := 0; run < 2; run++ {
		h := newOpHarness(t, NewSlidingWindow(100, 50, countAgg, countResult), newNamespace())
		feed(h, 60)
		h.close()
		if run == 0 {
			first = h.out
			continue
		}
		if !reflect.DeepEqual(h.out, first) {
			t.Fatalf("the same input fired %d results, then %d in another order", len(first), len(h.out))
		}
	}
	// The window [0, 100) first saw k3, k1, k\x00z and k2, then k0.
	var got []string
	for _, r := range first {
		if r.Time == 100 {
			got = append(got, r.Key)
		}
	}
	if want := []string{"k3", "k1", "k\x00z", "k2", "k0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("window [0,100) fired %q, want first-touch order %q", got, want)
	}

	// Restore in the middle of two windows, [0, 1000) and [250, 1250), each
	// holding all five keys; nothing has fired yet.
	ns := newNamespace()
	h := newOpHarness(t, NewSlidingWindow(1000, 250, countAgg, countResult), ns)
	feed(h, 40)
	if len(h.out) != 0 {
		t.Fatalf("%d windows fired before the restore", len(h.out))
	}
	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := newNamespace()
	if err := restored.Restore(img); err != nil {
		t.Fatal(err)
	}
	h = newOpHarness(t, NewSlidingWindow(1000, 250, countAgg, countResult), restored)
	h.close()
	var ends []int64
	byEnd := map[int64][]string{}
	for _, r := range h.out {
		if len(byEnd[r.Time]) == 0 {
			ends = append(ends, r.Time)
		}
		byEnd[r.Time] = append(byEnd[r.Time], r.Key)
	}
	if len(ends) != 2 || !slices.IsSorted(ends) {
		t.Fatalf("restored windows fired at ends %v, want two ascending", ends)
	}
	for end, got := range byEnd {
		if !slices.IsSorted(got) || len(got) != 5 {
			t.Errorf("restored window ending %d fired %q, want its five keys in key order", end, got)
		}
	}
}

// TestSlidingWindowProcessAllocs: a record whose accumulator exists costs
// the AggFunc's own allocations plus two — its storage key and Put's copy of
// the new accumulator. Get hands out a view, and the firing index only grows
// for a new accumulator.
func TestSlidingWindowProcessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ns := newNamespace()
	op := NewSlidingWindow(1000, 1000, countAgg, countResult)
	if err := op.Open(&TaskContext{Op: "win", Parallelism: 1, State: ns, Watermark: func() int64 { return 0 }}); err != nil {
		t.Fatal(err)
	}
	rec := Record{Key: "k", Time: 5}
	nop := func(Record) {}
	if err := op.Process(rec, 0, nop); err != nil {
		t.Fatal(err)
	}
	acc, ok := ns.Get(winKey("k", 0))
	if !ok {
		t.Fatal("the first record opened no accumulator")
	}
	agg := testing.AllocsPerRun(100, func() { countAgg(acc, rec) })
	got := testing.AllocsPerRun(100, func() {
		if err := op.Process(rec, 0, nop); err != nil {
			t.Fatal(err)
		}
	})
	if got > agg+2 {
		t.Errorf("Process into an open window allocates %v times, want at most the AggFunc's %v + 2", got, agg)
	}
}

// TestWindowIndexIdleFire: the firing index keeps its open ends ascending
// through ends added out of order (a late record reopening an earlier one
// included) and partial fires, and a record that fires nothing — the common
// case, once per record — costs fire one comparison, allocating nothing
// however many windows are open.
func TestWindowIndexIdleFire(t *testing.T) {
	x := newWindowIndex()
	for _, end := range []int64{300, 100, 200, 100, 400, 50} {
		x.add(end, winKey(fmt.Sprintf("k%d", len(x.keys)), end-10))
	}
	check := func(when string, want ...int64) {
		t.Helper()
		var indexed []int64
		for end := range x.keys {
			indexed = append(indexed, end)
		}
		slices.Sort(indexed)
		if !slices.Equal(x.ends, want) || !slices.Equal(indexed, want) {
			t.Fatalf("%s: ends %v, indexed %v, want %v", when, x.ends, indexed, want)
		}
	}
	check("after adds", 50, 100, 200, 300, 400)
	var fired []int64
	collect := func(end int64, _ string) error { fired = append(fired, end); return nil }
	if err := x.fire(250, collect); err != nil {
		t.Fatal(err)
	}
	if want := []int64{50, 100, 100, 200}; !slices.Equal(fired, want) {
		t.Fatalf("fire(250) fired ends %v, want %v", fired, want)
	}
	check("after fire(250)", 300, 400)
	x.add(150, winKey("late", 140))
	check("after a late end", 150, 300, 400)

	for end := int64(1000); end < 11000; end++ {
		x.add(end, winKey("k", end-10))
	}
	idle := func(int64, string) error { t.Fatal("an idle fire fired"); return nil }
	if raceEnabled {
		return // the race detector allocates on its own account
	}
	if got := testing.AllocsPerRun(100, func() { x.fire(149, idle) }); got != 0 {
		t.Errorf("a fire that fires nothing allocates %v times, want 0", got)
	}
}
