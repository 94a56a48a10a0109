package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"capsys/internal/dataflow"
)

// The throughput suite is a set of plain `go test -bench` microbenchmarks
// (`make bench-engine`): short runs of a few query shapes per transport,
// useful for a quick look while working on the data plane. It records
// nothing — the numbers any performance claim rests on come from the
// repository's benchmark under bench/ (BENCHMARK.json), which runs for
// seconds, checks its output and keeps baselines.

// RunQueryBench is the shared measurement loop: run build() b.N times,
// require wantSink records at the sinks each run (-1 skips the check) and
// the run to have fused iff wantFused, and report rec/s over the jobs' own
// wall-clock (summed over iterations, so it composes across b.N). Exported
// so the external benchmark file (package engine_test, which can import
// nexmark without an import cycle) shares it.
func RunQueryBench(b *testing.B, wantFused bool, wantSink int64, build func(b *testing.B) *Job) {
	b.Helper()
	b.ReportAllocs()
	var sourced int64
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := build(b).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if wantSink >= 0 && res.SinkRecords != wantSink {
			b.Fatalf("sink saw %d records, want %d", res.SinkRecords, wantSink)
		}
		if i == 0 {
			if _, ok := res.Metrics.Snapshot()["engine.fuse.tasks"]; ok != wantFused {
				b.Fatalf("run reports fusion=%v, want %v; the measured configuration is not the intended one", ok, wantFused)
			}
		}
		sourced += res.SourceRecords
		elapsed += res.Elapsed
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(sourced)/elapsed.Seconds(), "rec/s")
	}
}

// boxedValues holds the linear and fanout sources' record values, boxed once
// per process: boxing an int64 of 256 or more allocates, and a generator that
// boxed per record would make most of the allocations these benchmarks
// report instead of the engine. It covers the largest perSource below.
var boxedValues = sync.OnceValue(func() []any {
	vals := make([]any, 25000)
	for i := range vals {
		vals[i] = int64(i)
	}
	return vals
})

// linearJob: src(2) =fwd=> fwd(2) =fwd=> sink(2), index i co-located on
// worker i. Fully fusion-eligible: fused, each pipeline is one goroutine
// making direct calls — the ROADMAP raw-speed shape. Meters are effectively
// unlimited so the measured cost is the data plane itself.
func linearJob(b *testing.B, transport string, fused bool, perSource int64) *Job {
	b.Helper()
	g := forwardChain(b, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "fwd", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 2},
	})
	pl := dataflow.NewPlan()
	for _, op := range []dataflow.OperatorID{"src", "fwd", "sink"} {
		pl.Assign(dataflow.TaskID{Op: op, Index: 0}, 0)
		pl.Assign(dataflow.TaskID{Op: op, Index: 1}, 1)
	}
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			vals := boxedValues()
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: vals[i]}, true
			}), nil
		},
		"fwd":  func(*TaskContext) (any, error) { return NewMap(func(r Record) Record { return r }), nil },
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, pl, bigWorkers(2, 4), factories, JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
		DisableFusion:    !fused,
	})
	if err != nil {
		b.Fatal(err)
	}
	return job
}

// fanoutJob: src(2) feeds two parallel branches (hot/cold, AllToAll) that
// fan back into one sink — every record crosses two repartitioning
// exchanges, so nothing fuses and the exchange layer dominates.
func fanoutJob(b *testing.B, transport string, perSource int64) *Job {
	b.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "hot", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "cold", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "src", To: "hot"}, {From: "src", To: "cold"},
		{From: "hot", To: "sink"}, {From: "cold", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			b.Fatal(err)
		}
	}
	passthrough := func(*TaskContext) (any, error) {
		return NewMap(func(r Record) Record { return r }), nil
	}
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			vals := boxedValues()
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: vals[i]}, true
			}), nil
		},
		"hot":  passthrough,
		"cold": passthrough,
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(b, g, 2), bigWorkers(2, 6), factories, JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
	})
	if err != nil {
		b.Fatal(err)
	}
	return job
}

// joinJob: left(1) + right(1) into a keyed stateful incremental join(2),
// then a sink. Keys pair 1:1 (left i joins right i), so the sink sees
// exactly 2*perSource/2 matches and the hash-routing path is exercised on
// every record.
func joinJob(b *testing.B, transport string, perSource int64) *Job {
	b.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "left", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "right", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "join", Kind: dataflow.KindJoin, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "left", To: "join"}, {From: "right", To: "join"}, {From: "join", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			b.Fatal(err)
		}
	}
	keyed := func(base int64) Factory {
		return func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i), Value: base + i, Time: i}, true
			}), nil
		}
	}
	factories := map[dataflow.OperatorID]Factory{
		"left":  keyed(0),
		"right": keyed(1 << 30),
		"join": func(*TaskContext) (any, error) {
			return NewIncrementalJoin(func(l, r Record) (Record, bool) {
				return Record{Key: l.Key, Value: l.Value.(int64) + r.Value.(int64), Time: l.Time}, true
			}, 0), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(b, g, 2), bigWorkers(2, 4), factories, JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
		Stateful:         map[dataflow.OperatorID]bool{"join": true},
	})
	if err != nil {
		b.Fatal(err)
	}
	return job
}

// rescaleBenchJob: src(2) => keyed window(4) => sink, with a live rescale of
// the window operator to 6 tasks at checkpoint epoch 2 — the cost of the
// drain→repartition→resume protocol under full throughput (unthrottled
// sources: the drain lands wherever the stream happens to be).
func rescaleBenchJob(b *testing.B, transport string, perSource int64) *Job {
	b.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 4, Selectivity: 0.01},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{{From: "src", To: "win"}, {From: "win", To: "sink"}} {
		if err := g.AddEdge(e); err != nil {
			b.Fatal(err)
		}
	}
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%50), Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(b, g, 3), bigWorkers(3, 6), factories, JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
		SnapshotInterval: perSource / 10,
		Rescales:         []RescalePlan{{Op: "win", Parallelism: 6, AtEpoch: 2}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return job
}

// runRescaleBench mirrors RunQueryBench but additionally requires exactly one
// applied, lossless rescale per run and reports its mean downtime.
func runRescaleBench(b *testing.B, transport string, perSource int64) {
	b.Helper()
	b.ReportAllocs()
	var sourced int64
	var elapsed, downtime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rescaleBenchJob(b, transport, perSource).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed || res.LostRecords != 0 {
			b.Fatalf("rescale run failed=%v lost=%d", res.Failed, res.LostRecords)
		}
		if res.Rescales != 1 {
			b.Fatalf("run applied %d rescales, want 1", res.Rescales)
		}
		sourced += res.SourceRecords
		elapsed += res.Elapsed
		downtime += res.RescaleDowntime
	}
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(sourced)/elapsed.Seconds(), "rec/s")
		b.ReportMetric(downtime.Seconds()*1e3/float64(b.N), "downtime-ms")
	}
}

// BenchmarkBatchedSend times the batched sender alone: one record through
// send, and every 32nd through flushTarget's credit acquire and inbox send,
// on an in-memory edge with a consumer that only returns the credits. ns/op
// is per record; the default linger is on, so the cached-clock check is in it.
func BenchmarkBatchedSend(b *testing.B) {
	g := chainGraph(b, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(_, i int64) (Record, bool) { return Record{}, false }), nil
		},
		"snk": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(b, g, 1), bigWorkers(1, 2), factories,
		JobOptions{RecordsPerSource: 1, Transport: TransportBatched, DisableFusion: true})
	if err != nil {
		b.Fatal(err)
	}
	att, err := job.buildAttempt(1, nil, job.plan, newFaultState(FaultPlan{}, job.clk(), job.clk, nil), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	var src, snk *taskRuntime
	for _, rt := range att.tasks {
		if rt.numIn == 0 {
			src = rt
		} else {
			snk = rt
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case msg := <-snk.inbox:
				snk.gate.release(int64(len(msg.batch)))
				putBatch(msg.batch)
			case <-stop:
				return
			}
		}
	}()
	s := src.senders[0]
	rec := Record{Value: int64(1), Time: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.send(rec)
	}
	s.flush()
	b.StopTimer()
	close(stop)
	<-done
	if src.aborted || src.recordsOut != int64(b.N) {
		b.Fatalf("sender routed %d of %d records (aborted=%v)", src.recordsOut, b.N, src.aborted)
	}
}

// BenchmarkSlidingWindowProcess times the window operator alone on the shape
// of the keyed-lifecycle benchmark workload: a tumbling window over 100 k
// keys, each window seeing about 9.5 k of them, fed in event-time order with
// the watermark at the latest record. ns/op is one record's accumulate plus
// its share of the firing.
func BenchmarkSlidingWindowProcess(b *testing.B) {
	const keys, window = 100_000, 10_000
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%06d", i)
	}
	var wm int64
	op := NewSlidingWindow(window, window, countAgg, countResult)
	ctx := &TaskContext{Op: "win", Parallelism: 1, State: newNamespace(), Watermark: func() int64 { return wm }}
	if err := op.Open(ctx); err != nil {
		b.Fatal(err)
	}
	emit := func(Record) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm = int64(i)
		k := uint64(i) * 0x9E3779B97F4A7C15 >> 20 % keys
		if err := op.Process(Record{Key: names[k], Value: int64(1), Time: wm}, 0, emit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput is the multi-query suite (the
// Q3-inf shape lives in bench_nexmark_test.go, outside this package, to
// reach the nexmark bindings without an import cycle). The linear chain
// runs fused and unfused; the repartitioning shapes have nothing to fuse
// and run at the fuse-on default.
func BenchmarkEngineThroughput(b *testing.B) {
	b.Run("linear", func(b *testing.B) {
		const perSource = 25000
		for _, tr := range TransportNames() {
			for _, fused := range []bool{false, true} {
				mode := "unfused"
				if fused {
					mode = "fused"
				}
				b.Run(tr+"/"+mode, func(b *testing.B) {
					RunQueryBench(b, fused, 2*perSource, func(b *testing.B) *Job {
						return linearJob(b, tr, fused, perSource)
					})
				})
			}
		}
	})
	b.Run("fanout", func(b *testing.B) {
		const perSource = 15000
		for _, tr := range TransportNames() {
			b.Run(tr, func(b *testing.B) {
				RunQueryBench(b, false, 4*perSource, func(b *testing.B) *Job {
					return fanoutJob(b, tr, perSource)
				})
			})
		}
	})
	b.Run("join", func(b *testing.B) {
		const perSource = 10000
		for _, tr := range TransportNames() {
			b.Run(tr, func(b *testing.B) {
				RunQueryBench(b, false, perSource, func(b *testing.B) *Job {
					return joinJob(b, tr, perSource)
				})
			})
		}
	})
	b.Run("rescale", func(b *testing.B) {
		const perSource = 10000
		for _, tr := range TransportNames() {
			b.Run(tr, func(b *testing.B) {
				runRescaleBench(b, tr, perSource)
			})
		}
	})
}
