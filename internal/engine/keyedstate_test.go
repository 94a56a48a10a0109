package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
)

// TestWinKeyRoundTrip: splitWinKey inverts winKey whatever the record key
// holds — it reads the start from the tail, so a key with NUL or 0xff bytes
// (or one that looks like a window suffix itself) comes back intact.
func TestWinKeyRoundTrip(t *testing.T) {
	keys := []string{"", "k1", "auction-42", "a\x00b", "\x00", "\xff\xfe\x00\x00\x00\x00\x00\x00\x00\x00\x07", winKey("nested", 9)}
	for _, key := range keys {
		for _, start := range []int64{0, 1, 500, 1 << 40, -25} {
			gotKey, gotStart, ok := splitWinKey(winKey(key, start))
			if !ok || gotKey != key || gotStart != start {
				t.Errorf("splitWinKey(winKey(%q, %d)) = %q, %d, %v", key, start, gotKey, gotStart, ok)
			}
		}
	}
	for _, bad := range []string{"", "short", "12345678", "no-nul-before-the-start"} {
		if _, _, ok := splitWinKey(bad); ok {
			t.Errorf("splitWinKey(%q) accepted a key winKey cannot produce", bad)
		}
	}
}

// multisetSink is an exactly-once collecting sink: it counts each record it
// sees by a `key time type value` line and snapshots the counts, so records
// replayed after a restore are counted once — what lets a test compare a
// faulted run's full sink contents, not just their number, with a clean run.
type multisetSink struct {
	seen map[string]int
}

func (s *multisetSink) Open(*TaskContext) error { return nil }
func (s *multisetSink) Process(rec Record, _ int, _ Emit) error {
	s.seen[fmt.Sprintf("%q %d %T %#v", rec.Key, rec.Time, rec.Value, rec.Value)]++
	return nil
}
func (s *multisetSink) Close(Emit) error               { return nil }
func (s *multisetSink) SnapshotState() ([]byte, error) { return json.Marshal(s.seen) }
func (s *multisetSink) RestoreState(b []byte) error {
	s.seen = make(map[string]int)
	return json.Unmarshal(b, &s.seen)
}

// keyedStateCase is one built-in stateful operator with a stream that keeps
// several of its windows, sessions or buffers open at every barrier, and
// whose sink multiset does not depend on how the inputs interleave.
type keyedStateCase struct {
	name    string
	sources []dataflow.OperatorID
	gen     func(src int, i int64) Record
	op      func() Operator
}

// keyedStateCases are the four built-in stateful operators. Every record key
// ends in keyTail: with a NUL in it the key's own bytes run into the storage
// keys the windows derive (winKey), which must not part a record from its
// state.
func keyedStateCases(keyTail string) []keyedStateCase {
	pair := func(l, r Record) (Record, bool) {
		t := l.Time
		if r.Time > t {
			t = r.Time
		}
		return Record{Key: l.Key, Value: [2]any{l.Value, r.Value}, Time: t}, true
	}
	// Two inputs of one stream each: record i of side s, keyed so that each
	// key meets several records of the other side.
	sides := func(keys int64) func(int, int64) Record {
		return func(src int, i int64) Record {
			return Record{Key: fmt.Sprintf("k%d", i%keys) + keyTail, Value: int64(src)<<32 | i, Time: i}
		}
	}
	return []keyedStateCase{
		{
			// slide < size: four windows are open per key at any time.
			name:    "sliding-window",
			sources: []dataflow.OperatorID{"src"},
			gen: func(_ int, i int64) Record {
				return Record{Key: fmt.Sprintf("k%d", i%20) + keyTail, Value: i, Time: i}
			},
			op: func() Operator { return NewSlidingWindow(100, 25, countAgg, countResult) },
		},
		{
			// Bursts of 40 records, 100 ms apart: within a burst each key is
			// seen twice 20 ms apart (one session, gap 30), between bursts
			// its session closes; a barrier finds up to 20 sessions open.
			name:    "session-window",
			sources: []dataflow.OperatorID{"src"},
			gen: func(_ int, i int64) Record {
				return Record{Key: fmt.Sprintf("u%d", i%20) + keyTail, Value: i, Time: i/40*100 + i%40}
			},
			// The result carries the session's start, which only the stored
			// bounds know once the session has moved to another task.
			op: func() Operator {
				return NewSessionWindow(30, countAgg, func(key string, start, end int64, acc []byte) Record {
					return Record{Key: key, Value: [2]any{start, countResult(key, start, end, acc).Value}, Time: end}
				})
			},
		},
		{
			name:    "tumbling-join",
			sources: []dataflow.OperatorID{"left", "right"},
			gen:     sides(20),
			op:      func() Operator { return NewTumblingWindowJoin(50, pair) },
		},
		{
			name:    "incremental-join",
			sources: []dataflow.OperatorID{"left", "right"},
			gen:     sides(200),
			op:      func() Operator { return NewIncrementalJoin(pair, 0) },
		},
	}
}

// keyedStateJob builds sources(w0) → op(p tasks on w1, w2) → sink(w0) with a
// barrier every 100 records per source. A dead worker's tasks move to the
// other state worker.
func keyedStateJob(t *testing.T, c keyedStateCase, p int, sink *multisetSink, mut func(*JobOptions)) *Job {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	ops := []dataflow.Operator{
		{ID: "op", Kind: dataflow.KindWindow, Parallelism: p, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	}
	for _, s := range c.sources {
		ops = append(ops, dataflow.Operator{ID: s, Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1})
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	plan := dataflow.NewPlan()
	factories := map[dataflow.OperatorID]Factory{
		"op": func(*TaskContext) (any, error) { return c.op(), nil },
		"sink": func(*TaskContext) (any, error) {
			sink.seen = make(map[string]int)
			return sink, nil
		},
	}
	for i, s := range c.sources {
		if err := g.AddEdge(dataflow.Edge{From: s, To: "op"}); err != nil {
			t.Fatal(err)
		}
		plan.Assign(dataflow.TaskID{Op: s, Index: 0}, 0)
		side := i
		factories[s] = func(*TaskContext) (any, error) {
			return NewSource(func(_, i int64) (Record, bool) { return c.gen(side, i), true }), nil
		}
	}
	if err := g.AddEdge(dataflow.Edge{From: "op", To: "sink"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		plan.Assign(dataflow.TaskID{Op: "op", Index: i}, 1+i%2)
	}
	plan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 0)
	opts := JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		Stateful:         map[dataflow.OperatorID]bool{"op": true},
		// Throttled so a kill or a drain lands mid-stream (see rescalePipeline).
		SourceRate: map[dataflow.OperatorID]float64{"src": 20000, "left": 20000, "right": 20000},
		OnFailure: func(ev FailureEvent) (*dataflow.Plan, error) {
			np := dataflow.NewPlan()
			plan.Each(func(task dataflow.TaskID, w int) {
				for _, d := range ev.DeadWorkers {
					if w == d {
						w = 3 - d
					}
				}
				np.Assign(task, w)
			})
			return np, nil
		},
	}
	mut(&opts)
	job, err := NewJob(g, plan, bigWorkers(3, 8), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestKeyedStateRestoreAndRescale is the per-operator restore matrix: every
// built-in stateful operator × {a worker kill with recovery, rescale 2→3,
// rescale 3→2} × {batched, network}, with plain record keys and again with
// keys that hold a NUL. The operator's whole keyed state —
// accumulators, join buffers, session bounds — is in its namespace and its
// firing index is rebuilt from there, so the sink must see exactly the
// multiset of an undisturbed run, nothing may be lost, and no task of the
// operator may carry a Snapshotter image (the sink's own is how the test
// counts replayed records once).
func TestKeyedStateRestoreAndRescale(t *testing.T) {
	type disturbance struct {
		name string
		p    int
		mut  func(*JobOptions)
		want func(*JobResult) bool
	}
	disturbances := []disturbance{
		{"kill", 2,
			func(o *JobOptions) { o.FaultPlan = FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}} },
			func(r *JobResult) bool { return r.Recoveries == 1 }},
		{"rescale-2→3", 2,
			func(o *JobOptions) { o.Rescales = []RescalePlan{{Op: "op", Parallelism: 3, AtEpoch: 3}} },
			func(r *JobResult) bool { return r.Rescales == 1 && r.RescaleMovedBytes > 0 }},
		{"rescale-3→2", 3,
			func(o *JobOptions) { o.Rescales = []RescalePlan{{Op: "op", Parallelism: 2, AtEpoch: 3}} },
			func(r *JobResult) bool { return r.Rescales == 1 && r.RescaleMovedBytes > 0 }},
	}
	cases := keyedStateCases("")
	for _, c := range keyedStateCases("\x00z") {
		c.name += "-nul-key"
		cases = append(cases, c)
	}
	for _, c := range cases {
		var ref multisetSink
		if _, err := keyedStateJob(t, c, 2, &ref, func(*JobOptions) {}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(ref.seen) < 100 {
			t.Fatalf("%s: reference run sank only %d distinct records", c.name, len(ref.seen))
		}
		for _, d := range disturbances {
			for _, transport := range []string{TransportBatched, TransportNetwork} {
				t.Run(c.name+"/"+d.name+"/"+transport, func(t *testing.T) {
					var sink multisetSink
					job := keyedStateJob(t, c, d.p, &sink, func(o *JobOptions) {
						o.Transport = transport
						d.mut(o)
					})
					res, err := job.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if !d.want(res) || res.Failed || res.LostRecords != 0 {
						t.Fatalf("recoveries=%d rescales=%d moved=%d failed=%v lost=%d",
							res.Recoveries, res.Rescales, res.RescaleMovedBytes, res.Failed, res.LostRecords)
					}
					if !reflect.DeepEqual(sink.seen, ref.seen) {
						t.Errorf("sink multiset differs from the undisturbed run: %d distinct records, want %d%s",
							len(sink.seen), len(ref.seen), firstDifference(sink.seen, ref.seen))
					}
					job.sup.mu.Lock()
					defer job.sup.mu.Unlock()
					checked := 0
					for task, byEpoch := range job.sup.led.snaps {
						for epoch, snap := range byEpoch {
							if task.Op != "op" {
								continue
							}
							checked++
							if len(snap.OpState) != 0 {
								t.Errorf("%v epoch %d carries a %d-byte operator image", task, epoch, len(snap.OpState))
							}
							if len(snap.NSState) == 0 {
								t.Errorf("%v epoch %d has no namespace image", task, epoch)
							}
						}
					}
					if checked == 0 {
						t.Error("no snapshot of the operator retained")
					}
				})
			}
		}
	}
}

func firstDifference(got, want map[string]int) string {
	for k, n := range want {
		if got[k] != n {
			return fmt.Sprintf("; e.g. %s ×%d, want ×%d", k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] != n {
			return fmt.Sprintf("; e.g. %s ×%d, want ×%d", k, n, want[k])
		}
	}
	return ""
}

// TestRescaleRefusesSnapshotterImage: keyed state moves through the
// namespace's key-groups and nothing else, so an operator whose tasks carry
// an opaque Snapshotter image — here the collecting sink — cannot be
// rescaled, and the run says which operator that is instead of dropping the
// image.
func TestRescaleRefusesSnapshotterImage(t *testing.T) {
	var sink multisetSink
	job := keyedStateJob(t, keyedStateCases("")[0], 2, &sink, func(o *JobOptions) {
		o.Rescales = []RescalePlan{{Op: "sink", Parallelism: 2, AtEpoch: 2}}
	})
	_, err := job.Run(context.Background())
	if !errors.Is(err, ErrRescaleRefused) || !strings.Contains(err.Error(), `"sink"`) || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("rescaling an operator with a Snapshotter image: err = %v, want a refusal naming it", err)
	}
}

// TestJoinCorruptStateFailsRun: a buffered join entry that does not decode
// fails the task with ErrWirePayload. The corrupt entry sits beside a good
// one under a key the stream will hit; skipping it (what the JSON buffers
// did) would finish the run one pair short. The incremental join keeps both
// sides in one list under the record key, so its entries are right-side
// records planted opposite the left records that arrive.
func TestJoinCorruptStateFailsRun(t *testing.T) {
	good, err := appendStateRecord(nil, 1, Record{Key: "k0", Value: int64(7), Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string][]byte{
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte{}, good...), 0),
		"unknown tag":   append(append([]byte{}, good[:len(good)-2]...), 63, 0),
		"side 2":        append([]byte{2}, good[1:]...),
		"json":          []byte(`{"k":"k0","v":7,"t":1,"z":0}`),
	}
	incremental := func() Operator {
		return NewIncrementalJoin(func(l, r Record) (Record, bool) { return l, true }, 0)
	}
	joins := map[string]struct {
		storageKey string
		op         func() Operator
	}{
		"incremental": {"k0", incremental},
		"tumbling": {winKey("k0", 0), func() Operator {
			return NewTumblingWindowJoin(100, func(l, r Record) (Record, bool) { return l, true })
		}},
	}
	for jname, j := range joins {
		for cname, entry := range corrupt {
			t.Run(jname+"/"+cname, func(t *testing.T) {
				if err := runJoinOverState(t, j.op, j.storageKey, 3, 3, good, entry); !errors.Is(err, ErrWirePayload) {
					t.Fatalf("run with a corrupt buffered record: err = %v, want ErrWirePayload", err)
				}
			})
		}
	}
	// A record decodes only the other side's entries: a corrupt left-side
	// entry goes unread while left records arrive, and fails the run as soon
	// as a right record does.
	t.Run("incremental/own side", func(t *testing.T) {
		left, err := appendStateRecord(nil, 0, Record{Key: "k0", Value: int64(7), Time: 1})
		if err != nil {
			t.Fatal(err)
		}
		entry := left[:len(left)-1]
		if err := runJoinOverState(t, incremental, "k0", 3, 0, entry); err != nil {
			t.Fatalf("left records over a corrupt left-side entry: %v", err)
		}
		if err := runJoinOverState(t, incremental, "k0", 3, 3, entry); !errors.Is(err, ErrWirePayload) {
			t.Fatalf("right records over a corrupt left-side entry: err = %v, want ErrWirePayload", err)
		}
	})
}

// runJoinOverState runs left and right sources of leftN and rightN records,
// all keyed k0, into the join op, whose task starts from a namespace holding
// entries under storageKey.
func runJoinOverState(t *testing.T, op func() Operator, storageKey string, leftN, rightN int64, entries ...[]byte) error {
	t.Helper()
	scratch := statebackend.NewStore(nil, statebackend.Options{}).Namespace("scratch")
	for _, e := range entries {
		scratch.Append(storageKey, e)
	}
	image, err := scratch.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g := joinGraph(t, 1)
	src := func(n int64) Factory {
		return func(*TaskContext) (any, error) {
			return NewSource(func(_, i int64) (Record, bool) {
				return Record{Key: "k0", Value: i, Time: i}, i < n
			}), nil
		}
	}
	factories := map[dataflow.OperatorID]Factory{
		"left": src(leftN), "right": src(rightN),
		"join": func(ctx *TaskContext) (any, error) {
			return op(), ctx.State.Restore(image)
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 4), factories, JobOptions{
		RecordsPerSource: max(leftN, rightN),
		Stateful:         map[dataflow.OperatorID]bool{"join": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = job.Run(context.Background())
	return err
}

// TestKeyedStateIncrementalJoinOneList: the incremental join keeps one list
// per record key, both sides in it; a record joins the other side's entries
// in the order they arrived; and perKeyCap bounds each side on its own — a
// capped side stops buffering but its records still join.
func TestKeyedStateIncrementalJoinOneList(t *testing.T) {
	type arrival struct {
		side int
		key  string
		v    int64
	}
	run := func(perKeyCap int, arrivals []arrival) (*statebackend.Namespace, [][2]int64) {
		t.Helper()
		op := NewIncrementalJoin(func(l, r Record) (Record, bool) {
			return Record{Key: l.Key, Value: [2]any{l.Value, r.Value}}, true
		}, perKeyCap)
		ns := newNamespace()
		if err := op.Open(&TaskContext{Op: "join", Parallelism: 1, State: ns}); err != nil {
			t.Fatal(err)
		}
		var pairs [][2]int64
		emit := func(r Record) {
			p := r.Value.([2]any)
			pairs = append(pairs, [2]int64{p[0].(int64), p[1].(int64)})
		}
		for _, a := range arrivals {
			if err := op.Process(Record{Key: a.key, Value: a.v, Time: a.v}, a.side, emit); err != nil {
				t.Fatal(err)
			}
		}
		return ns, pairs
	}

	ns, pairs := run(0, []arrival{
		{0, "a", 1}, {1, "a", 2}, {0, "a", 3}, {1, "b", 4}, {1, "a", 5}, {0, "b", 6}, {0, "a", 7}, {1, "c\x00s1", 8},
	})
	want := [][2]int64{{1, 2}, {3, 2}, {1, 5}, {3, 5}, {6, 4}, {7, 2}, {7, 5}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("joined pairs %v, want %v", pairs, want)
	}
	lists := map[string]int{}
	ns.Scan(func(key string, value []byte) {
		if value != nil {
			t.Errorf("join state holds KV key %q", key)
		}
		lists[key] = 0
	})
	for key := range lists {
		lists[key] = len(ns.List(key))
	}
	if wantLists := map[string]int{"a": 5, "b": 2, "c\x00s1": 1}; !reflect.DeepEqual(lists, wantLists) {
		t.Errorf("join state lists %v, want one per record key: %v", lists, wantLists)
	}

	ns, pairs = run(2, []arrival{
		{0, "x", 1}, {0, "x", 2}, {0, "x", 3}, {1, "x", 4}, {1, "x", 5}, {1, "x", 6}, {0, "x", 7}, {1, "x", 8},
	})
	want = [][2]int64{{1, 4}, {2, 4}, {1, 5}, {2, 5}, {1, 6}, {2, 6}, {7, 4}, {7, 5}, {1, 8}, {2, 8}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("capped join pairs %v, want %v", pairs, want)
	}
	var sides [2]int
	for _, buf := range ns.List("x") {
		sides[buf[0]]++
	}
	if sides != [2]int{2, 2} {
		t.Errorf("capped join buffered %v records per side, want 2 each", sides)
	}
}

// TestJoinUnregisteredValueFailsRun: a value the wire has no codec for
// cannot be buffered either; the join fails naming the type, with the same
// error the network transport gives (TestWireUnregisteredValueIsEncodeError).
func TestJoinUnregisteredValueFailsRun(t *testing.T) {
	type unregistered struct{ A int }
	g := joinGraph(t, 1)
	src := func(*TaskContext) (any, error) {
		return NewSource(func(_, i int64) (Record, bool) {
			return Record{Key: "k", Value: unregistered{A: int(i)}, Time: i}, i < 2
		}), nil
	}
	factories := map[dataflow.OperatorID]Factory{
		"left": src, "right": src,
		"join": func(*TaskContext) (any, error) {
			return NewIncrementalJoin(func(l, r Record) (Record, bool) { return l, true }, 0), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 4), factories, JobOptions{
		RecordsPerSource: 2,
		Stateful:         map[dataflow.OperatorID]bool{"join": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); !errors.Is(err, ErrWireValue) {
		t.Fatalf("join over an unregistered value type: err = %v, want the type named", err)
	}
}

// TestStateRecordDeterministic: the same record encodes to the same bytes
// every time — map values included, which Go iterates in random order — so a
// namespace holding buffered records still snapshots deterministically.
func TestStateRecordDeterministic(t *testing.T) {
	rec := Record{Key: "k", Time: 5, Value: map[string]any{
		"a": int64(1), "b": "two", "c": []any{3.0}, "d": map[string]any{"x": nil, "y": true, "z": uint64(9)}, "e": nil, "f": false,
	}}
	first, err := appendStateRecord(nil, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if again, _ := appendStateRecord(nil, 0, rec); string(again) != string(first) {
			t.Fatalf("encoding %d differs:\n%q\n%q", i, again, first)
		}
	}
}

// FuzzStateRecordRoundTrip: any record the fuzz input describes (the
// generator of FuzzWireBatchRoundTrip: every registered value type, nil
// against empty, NaNs, extreme times) survives appendStateRecord →
// decodeStateRecord exactly, dynamic types included; and the raw input,
// every strict prefix of an encoding and every single-byte mutation of it
// decode to ErrWirePayload or to a record that encodes again — never a
// panic, never an allocation sized by a declared length the remaining bytes
// could not hold.
func FuzzStateRecordRoundTrip(f *testing.F) {
	// Seeds are the committed corpus under testdata/fuzz/FuzzStateRecordRoundTrip.
	f.Fuzz(func(t *testing.T, data []byte, mask byte) {
		if _, _, err := decodeStateRecord(data); err != nil && !errors.Is(err, ErrWirePayload) {
			t.Fatalf("untyped decode error: %v", err)
		}
		src := fuzzSrc{b: data}
		side := int(src.byte() % 2)
		want := batchEntry{rec: Record{Key: src.str(), Time: src.int64(), Size: int(src.int64() >> 40), Value: src.value(0)}}
		enc, err := appendStateRecord(nil, side, want.rec)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		gotSide, got, err := decodeStateRecord(enc)
		if err != nil || gotSide != side {
			t.Fatalf("decode(encode(x)): side %d, want %d, err %v", gotSide, side, err)
		}
		sameEntries(t, []batchEntry{{rec: got}}, []batchEntry{want})

		if mask == 0 {
			mask = 1
		}
		before := allocatedBytes()
		for i := range enc {
			if _, _, err := decodeStateRecord(enc[:i]); !errors.Is(err, ErrWirePayload) {
				t.Fatalf("prefix of %d/%d bytes: %v, want ErrWirePayload", i, len(enc), err)
			}
			enc[i] ^= mask
			side, rec, err := decodeStateRecord(enc)
			if err == nil {
				if _, err := appendStateRecord(nil, side, rec); err != nil {
					t.Fatalf("mutation at %d decoded to an unencodable record: %v", i, err)
				}
			} else if !errors.Is(err, ErrWirePayload) {
				t.Fatalf("mutation at %d: untyped error %v", i, err)
			}
			enc[i] ^= mask
		}
		// The allowance of FuzzWireBatchRoundTrip, per decode.
		limit := 2 * uint64(len(enc)) * (64*uint64(len(enc)) + 4096)
		if grew := allocatedBytes() - before; grew > limit {
			t.Fatalf("%d decodes of a %d-byte record allocated %d bytes (limit %d)", 2*len(enc), len(enc), grew, limit)
		}
	})
}
