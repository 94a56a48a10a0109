package engine_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
)

// wireValues is one of every value shape a pipeline in this tree ships as
// Record.Value: the built-in scalars and composites, the three nexmark event
// structs (registered beside their types), and a join pair holding two of
// them. Values at or above 256 matter for the integers: smaller ones box
// without allocating and would hide a decoder that reuses a buffer.
func wireValues() []any {
	person := nexmark.Person{ID: 7, Name: "ada", Email: "ada@example.org", City: "paris", State: "", Timestamp: 1_700_000_000_123}
	auction := nexmark.Auction{ID: 9, ItemName: "lamp", InitialBid: 10, Reserve: 1 << 40, Seller: 7, Category: 3, Timestamp: 1_700_000_000_456, Expires: -1}
	bid := nexmark.Bid{Auction: 9, Bidder: 7, Price: 1250, Timestamp: 1_700_000_000_789}
	return []any{
		nil, true, false,
		int(-70_000), int32(math.MinInt32), int64(math.MaxInt64), int64(300), uint64(math.MaxUint64),
		float32(2.5), math.Inf(-1), math.NaN(), 1e-300,
		"", "plain", strings.Repeat("long ", 200),
		[]byte(nil), []byte{}, []byte{0, 1, 254, 255},
		[2]any{person, auction}, [2]any{bid, nil},
		[]any(nil), []any{}, []any{int64(1), "two", 3.0, []any{person}},
		map[string]any(nil), map[string]any{}, map[string]any{"bid": bid, "n": int64(2), "tags": []any{"a", "b"}},
		person, auction, bid,
	}
}

// TestCrossTransportValueTypes is the equivalence battery's value row: the
// same records — one of every registered value type, keyed and unkeyed —
// cross two exchange hops (src on worker 0, a relabelling map on worker 1,
// the sink back on worker 0) under each transport, and the sink must see the
// identical multiset with identical dynamic types: an int64 stays an int64,
// a nil slice stays nil, a struct stays that struct. Under `network` both
// hops are TCP frames through the hand-rolled codec; `unary` is the
// reference that never serialises anything.
func TestCrossTransportValueTypes(t *testing.T) {
	values := wireValues()
	const laps = 40 // several default-sized batches per channel
	total := int64(len(values) * laps)
	run := func(transport string) ([]string, *engine.JobResult) {
		g := dataflow.NewLogicalGraph()
		for _, op := range []dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "relabel", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
			{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
		} {
			if err := g.AddOperator(op); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []dataflow.Edge{{From: "src", To: "relabel"}, {From: "relabel", To: "snk"}} {
			if err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		plan := dataflow.NewPlan()
		plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
		plan.Assign(dataflow.TaskID{Op: "relabel", Index: 0}, 1)
		plan.Assign(dataflow.TaskID{Op: "relabel", Index: 1}, 1)
		plan.Assign(dataflow.TaskID{Op: "snk", Index: 0}, 0)
		var mu sync.Mutex
		var seen []string
		factories := map[dataflow.OperatorID]engine.Factory{
			"src": func(*engine.TaskContext) (any, error) {
				return engine.NewSource(func(_, i int64) (engine.Record, bool) {
					rec := engine.Record{Value: values[i%int64(len(values))], Time: i - 100, Size: int(i % 3 * 50)}
					if i%2 == 0 {
						rec.Key = fmt.Sprintf("k%d", i%11)
					}
					return rec, true
				}), nil
			},
			"relabel": func(*engine.TaskContext) (any, error) {
				return engine.NewMap(func(r engine.Record) engine.Record { return r }), nil
			},
			"snk": func(*engine.TaskContext) (any, error) {
				return engine.NewSink(func(r engine.Record) {
					line := fmt.Sprintf("%q %d %d %T %#v", r.Key, r.Time, r.Size, r.Value, r.Value)
					mu.Lock()
					seen = append(seen, line)
					mu.Unlock()
				}), nil
			},
		}
		workers := engine.ClusterSpec{Workers: []engine.WorkerSpec{
			{ID: "w0", Slots: 4, Cores: 1e6, IOBps: 1e12, NetBps: 1e12},
			{ID: "w1", Slots: 4, Cores: 1e6, IOBps: 1e12, NetBps: 1e12},
		}}
		job, err := engine.NewJob(g, plan, workers, factories, engine.JobOptions{RecordsPerSource: total, Transport: transport})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		sort.Strings(seen)
		return seen, res
	}
	want, _ := run(engine.TransportUnary)
	if int64(len(want)) != total {
		t.Fatalf("unary sink saw %d records, want %d", len(want), total)
	}
	for _, tr := range []string{engine.TransportBatched, engine.TransportNetwork} {
		got, res := run(tr)
		if len(got) != len(want) {
			t.Fatalf("%s sink saw %d records, unary %d", tr, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s diverges from unary at sorted record %d:\n got  %s\n want %s", tr, i, got[i], want[i])
			}
		}
		m := res.Metrics.Snapshot()
		if tr == engine.TransportNetwork && (m["net.data_batches"] == 0 || m["net.encode_errors"] != 0 || m["net.unexpected_frames"] != 0) {
			t.Errorf("network run: data_batches=%v encode_errors=%v unexpected_frames=%v, want >0, 0, 0",
				m["net.data_batches"], m["net.encode_errors"], m["net.unexpected_frames"])
		}
	}
}

// TestJoinStateKeepsValueTypes is the same row for keyed state: every value
// shape — int64, the nexmark structs and nested [2]any pairs among them — is
// sent down both inputs of each join under the same key, and the join
// function must be handed both sides with the dynamic type and value they
// were emitted with, whichever side waited in list state (one of them in the
// incremental join, both in the tumbling join). The JSON buffers this
// replaces gave float64 and map[string]any back.
func TestJoinStateKeepsValueTypes(t *testing.T) {
	values := wireValues()
	show := func(v any) string { return fmt.Sprintf("%T %#v", v, v) }
	joins := map[string]func(engine.JoinFunc) engine.Operator{
		"incremental": func(fn engine.JoinFunc) engine.Operator { return engine.NewIncrementalJoin(fn, 0) },
		"tumbling":    func(fn engine.JoinFunc) engine.Operator { return engine.NewTumblingWindowJoin(10, fn) },
	}
	for name, newJoin := range joins {
		t.Run(name, func(t *testing.T) {
			g := dataflow.NewLogicalGraph()
			for _, op := range []dataflow.Operator{
				{ID: "left", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "right", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "join", Kind: dataflow.KindJoin, Parallelism: 2, Selectivity: 1},
				{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
			} {
				if err := g.AddOperator(op); err != nil {
					t.Fatal(err)
				}
			}
			plan := dataflow.NewPlan()
			for _, e := range []dataflow.Edge{{From: "left", To: "join"}, {From: "right", To: "join"}, {From: "join", To: "snk"}} {
				if err := g.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			for _, task := range []dataflow.TaskID{{Op: "left"}, {Op: "right"}, {Op: "join"}, {Op: "join", Index: 1}, {Op: "snk"}} {
				plan.Assign(task, 0)
			}
			src := func(*engine.TaskContext) (any, error) {
				return engine.NewSource(func(_, i int64) (engine.Record, bool) {
					return engine.Record{Key: fmt.Sprintf("k%d", i), Value: values[i], Time: i, Size: int(i)}, true
				}), nil
			}
			var mu sync.Mutex
			var wrong []string
			pairs := 0
			factories := map[dataflow.OperatorID]engine.Factory{
				"left": src, "right": src,
				"join": func(*engine.TaskContext) (any, error) {
					return newJoin(func(l, r engine.Record) (engine.Record, bool) {
						mu.Lock()
						defer mu.Unlock()
						pairs++
						want := engine.Record{Key: l.Key, Value: values[l.Time], Time: l.Time, Size: int(l.Time)}
						for _, got := range []engine.Record{l, r} {
							if got.Key != want.Key || got.Time != want.Time || got.Size != want.Size || show(got.Value) != show(want.Value) {
								wrong = append(wrong, fmt.Sprintf("%+v (%s), want %+v (%s)", got, show(got.Value), want, show(want.Value)))
							}
						}
						return l, true
					}), nil
				},
				"snk": func(*engine.TaskContext) (any, error) { return engine.NewSink(nil), nil },
			}
			workers := engine.ClusterSpec{Workers: []engine.WorkerSpec{{ID: "w0", Slots: 8, Cores: 1e6, IOBps: 1e12, NetBps: 1e12}}}
			job, err := engine.NewJob(g, plan, workers, factories, engine.JobOptions{
				RecordsPerSource: int64(len(values)),
				Stateful:         map[dataflow.OperatorID]bool{"join": true},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if pairs != len(values) {
				t.Errorf("joined %d pairs, want %d", pairs, len(values))
			}
			for _, w := range wrong {
				t.Errorf("join function was handed %s", w)
			}
		})
	}
}
