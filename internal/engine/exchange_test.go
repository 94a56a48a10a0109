package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// asTransport returns a JobOptions mutator selecting one transport with the
// given batch shape (zeros keep the defaults).
func asTransport(name string, batchSize int, linger time.Duration) func(*JobOptions) {
	return func(o *JobOptions) {
		o.Transport = name
		o.BatchSize = batchSize
		o.BatchLinger = linger
	}
}

// TestCrossTransportEquivalence is the equivalence battery: the same
// pipelines — stateful windows, stateful sources with round-robin restore,
// and mid-run worker kills with recovery — must produce byte-identical
// record/byte counters and fault outcomes under every transport (unary,
// batched, and network, where cross-worker edges traverse real TCP
// sockets). The transports may differ in timing, never in what was
// processed.
func TestCrossTransportEquivalence(t *testing.T) {
	kill := FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}}
	cases := []struct {
		name  string
		build func(t *testing.T, mut func(*JobOptions)) *Job
	}{
		{"window-clean", func(t *testing.T, mut func(*JobOptions)) *Job {
			return winPipeline(t, FaultPlan{}, false, mut)
		}},
		{"window-kill-recovery", func(t *testing.T, mut func(*JobOptions)) *Job {
			return winPipeline(t, kill, true, mut)
		}},
		{"statefulsrc-clean", func(t *testing.T, mut func(*JobOptions)) *Job {
			return sumPipeline(t, FaultPlan{}, false, mut)
		}},
		{"statefulsrc-kill-recovery", func(t *testing.T, mut func(*JobOptions)) *Job {
			return sumPipeline(t, kill, true, mut)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outcomes := make(map[string]string)
			results := make(map[string]*JobResult)
			for _, tr := range TransportNames() {
				// A small batch with default linger exercises both size- and
				// time-triggered flushes against the barrier stream.
				res, err := tc.build(t, asTransport(tr, 16, 0)).Run(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", tr, err)
				}
				outcomes[tr] = canonicalOutcome(res)
				results[tr] = res
			}
			// RestoredEpoch is deliberately not compared: which epoch was
			// last complete when the kill fired depends on how far the sink
			// had aligned, which is schedule- (and transport-) dependent.
			// Exactly-once accounting is what must match, and it is covered
			// by canonicalOutcome above.
			for _, tr := range TransportNames() {
				if tr == TransportUnary {
					continue
				}
				if outcomes[tr] != outcomes[TransportUnary] {
					t.Errorf("transports diverge:\nunary:\n%s\n%s:\n%s",
						outcomes[TransportUnary], tr, outcomes[tr])
				}
				// Both batching transports coalesce records.
				if got := results[tr].Metrics.Snapshot()["exchange.batches"]; got == 0 {
					t.Errorf("%s run reports zero exchange.batches", tr)
				}
			}
			if got := results[TransportUnary].Metrics.Snapshot()["exchange.batches"]; got != 0 {
				t.Errorf("unary run reports %v exchange.batches, want 0", got)
			}
			// The network run must have actually used the wire: the pipelines
			// span two workers, so cross-worker edges carry data frames.
			if got := results[TransportNetwork].Metrics.Snapshot()["net.data_batches"]; got == 0 {
				t.Error("network run reports zero net.data_batches")
			}
		})
	}
}

// TestCrossTransportRates: with a rate-limited source the pipeline is
// source-bound under every transport, so observed operator input rates
// must agree within a loose statistical tolerance. The strict ratio check
// is wall-clock sensitive — race instrumentation and loaded CI hosts skew
// short runs — so under -race only the sanity bounds apply.
func TestCrossTransportRates(t *testing.T) {
	build := func(mut func(*JobOptions)) *Job {
		return winPipeline(t, FaultPlan{}, false, func(o *JobOptions) {
			o.SourceRate = map[dataflow.OperatorID]float64{"src": 4000}
			o.RecordsPerSource = 400
			mut(o)
		})
	}
	rates := make(map[string]float64)
	for _, tr := range TransportNames() {
		res, err := build(asTransport(tr, 0, 0)).Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		rates[tr] = res.OperatorInRate("win")
		if rates[tr] <= 0 {
			t.Fatalf("%s: non-positive input rate %v", tr, rates[tr])
		}
	}
	if raceEnabled {
		t.Log("race build: skipping strict rate-ratio comparison")
		return
	}
	u := rates[TransportUnary]
	for _, tr := range TransportNames() {
		if ratio := math.Abs(u-rates[tr]) / u; ratio > 0.35 {
			t.Errorf("rate-limited input rates diverge beyond 35%%: unary %.1f vs %s %.1f",
				u, tr, rates[tr])
		}
	}
}

// TestBatchedBackpressurePreserved: a slow consumer behind a small channel
// must throttle the source under the batched transport exactly as it does
// under unary — credits, not unbounded buffers, absorb the burst. The run
// cannot finish faster than the slow operator's metered service time, the
// source must report backpressure, and the credit gate must record stalls.
func TestBatchedBackpressurePreserved(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "slow", Kind: dataflow.KindMap, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"slow": func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record { return r }), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	spec := ClusterSpec{Workers: []WorkerSpec{{ID: "w0", Slots: 3, Cores: 1, IOBps: 1e12, NetBps: 1e12}}}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), spec, factories, JobOptions{
		RecordsPerSource: 200,
		ChannelCapacity:  8,
		Transport:        TransportBatched,
		BatchSize:        8,
		PerRecordCPU:     map[dataflow.OperatorID]float64{"slow": 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 200 x 1ms of metered service minus the 5% burst allowance.
	if res.Elapsed < 140*time.Millisecond {
		t.Errorf("run finished in %v; batched transport lost backpressure", res.Elapsed)
	}
	src := res.Tasks[dataflow.TaskID{Op: "src", Index: 0}]
	if src.BackpressureT == 0 {
		t.Error("source reports zero backpressure time despite slow consumer")
	}
	snap := res.Metrics.Snapshot()
	if snap["exchange.credit_stalls"] == 0 {
		t.Error("credit gate recorded no stalls despite a saturated receiver")
	}
	if snap["exchange.batches"] == 0 {
		t.Error("no batches recorded")
	}
}

// TestJoinUnderBatchedTransport runs the two-input tumbling window join over
// the batching transports (in-memory batched and network): join correctness
// must survive batching, and with checkpoint barriers whose interval is not
// a multiple of the batch size every barrier forces a partial-batch flush —
// over the network transport that flush crosses a real TCP socket.
func TestJoinUnderBatchedTransport(t *testing.T) {
	type barrierCase struct {
		name string
		mut  func(*JobOptions)
	}
	var cases []barrierCase
	for _, tr := range []string{TransportBatched, TransportNetwork} {
		tr := tr
		cases = append(cases,
			// Barrier every 70 records vs batch size 32: barriers always land
			// mid-batch, so alignment depends on the pre-barrier flush.
			barrierCase{tr + "/partial-batch-at-barrier", func(o *JobOptions) {
				o.Transport = tr
				o.BatchSize = 32
				o.SnapshotInterval = 70
			}},
			// Tiny channels + per-record cost on the join: barriers traverse
			// batch boundaries while the credit gate is saturated.
			barrierCase{tr + "/barrier-under-backpressure", func(o *JobOptions) {
				o.Transport = tr
				o.BatchSize = 8
				o.ChannelCapacity = 8
				o.SnapshotInterval = 50
				o.PerRecordCPU = map[dataflow.OperatorID]float64{"join": 2e-4}
			}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := dataflow.NewLogicalGraph()
			for _, op := range []dataflow.Operator{
				{ID: "left", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "right", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "join", Kind: dataflow.KindJoin, Parallelism: 2, Selectivity: 1},
				{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
			} {
				if err := g.AddOperator(op); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range []dataflow.Edge{{From: "left", To: "join"}, {From: "right", To: "join"}, {From: "join", To: "sink"}} {
				if err := g.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			var joined atomic.Int64
			mkSrc := func(*TaskContext) (any, error) {
				return NewSource(func(task, i int64) (Record, bool) {
					return Record{Key: fmt.Sprintf("k%d", i%5), Value: i, Time: i}, true
				}), nil
			}
			factories := map[dataflow.OperatorID]Factory{
				"left":  mkSrc,
				"right": mkSrc,
				"join": func(*TaskContext) (any, error) {
					return NewTumblingWindowJoin(100, func(l, r Record) (Record, bool) {
						if l.Value.(int64) == r.Value.(int64) {
							return Record{Key: l.Key, Value: l.Value, Time: l.Time}, true
						}
						return Record{}, false
					}), nil
				},
				"sink": func(*TaskContext) (any, error) {
					return NewSink(func(Record) { joined.Add(1) }), nil
				},
			}
			opts := JobOptions{
				RecordsPerSource: 300,
				Stateful:         map[dataflow.OperatorID]bool{"join": true},
			}
			tc.mut(&opts)
			job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, 4), factories, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if joined.Load() != 300 {
				t.Errorf("joined %d pairs, want 300", joined.Load())
			}
			if opts.SnapshotInterval > 0 {
				wantEpochs := opts.RecordsPerSource / opts.SnapshotInterval
				// All 5 tasks snapshot every epoch the sources complete.
				if res.SnapshotsTaken < wantEpochs*5 {
					t.Errorf("SnapshotsTaken = %d, want >= %d", res.SnapshotsTaken, wantEpochs*5)
				}
			}
		})
	}
}

// TestStalledDownstreamCannotDeadlockKill is the abort-path regression
// test: when a worker kill fires while another branch of the job is blocked
// on a full inbox behind a stalled task, the abort must release every
// blocked sender (channel sends and credit waits alike) so recovery can
// proceed. Before the exchange layer honored abort on all blocking paths,
// this scenario hung forever.
func TestStalledDownstreamCannotDeadlockKill(t *testing.T) {
	for _, tr := range TransportNames() {
		t.Run(tr, func(t *testing.T) {
			g := dataflow.NewLogicalGraph()
			for _, op := range []dataflow.Operator{
				{ID: "srcA", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "snkA", Kind: dataflow.KindSink, Parallelism: 1},
				{ID: "srcB", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "snkB", Kind: dataflow.KindSink, Parallelism: 1},
			} {
				if err := g.AddOperator(op); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range []dataflow.Edge{{From: "srcA", To: "snkA"}, {From: "srcB", To: "snkB"}} {
				if err := g.AddEdge(e); err != nil {
					t.Fatal(err)
				}
			}
			phys, err := dataflow.Expand(g)
			if err != nil {
				t.Fatal(err)
			}
			base := dataflow.NewPlan()
			base.Assign(dataflow.TaskID{Op: "srcA", Index: 0}, 0)
			base.Assign(dataflow.TaskID{Op: "snkA", Index: 0}, 0)
			base.Assign(dataflow.TaskID{Op: "srcB", Index: 0}, 1)
			base.Assign(dataflow.TaskID{Op: "snkB", Index: 0}, 1)
			mkSrc := func(*TaskContext) (any, error) {
				return NewSource(func(task, i int64) (Record, bool) {
					return Record{Value: i, Time: i}, true
				}), nil
			}
			mkSink := func(*TaskContext) (any, error) { return NewSink(nil), nil }
			factories := map[dataflow.OperatorID]Factory{
				"srcA": mkSrc, "snkA": mkSink, "srcB": mkSrc, "snkB": mkSink,
			}
			opts := JobOptions{
				RecordsPerSource: 200,
				ChannelCapacity:  4,
				SnapshotInterval: 25,
				Transport:        tr,
				FaultPlan: FaultPlan{
					// Kill the fast branch's worker at its first barrier while
					// srcB sits blocked behind the stalled snkB.
					KillWorkers: []WorkerKill{{Worker: 0, AtEpoch: 1}},
					StallTasks: []TaskStall{{
						Task:         dataflow.TaskID{Op: "snkB", Index: 0},
						AfterRecords: 2,
						Stall:        time.Second,
					}},
				},
				OnFailure: func(ev FailureEvent) (*dataflow.Plan, error) {
					dead := make(map[int]bool)
					for _, w := range ev.DeadWorkers {
						dead[w] = true
					}
					np := dataflow.NewPlan()
					for _, task := range phys.Tasks() {
						w := base.MustWorker(task)
						if dead[w] {
							w = 2
						}
						np.Assign(task, w)
					}
					return np, nil
				},
			}
			job, err := NewJob(g, base, bigWorkers(3, 4), factories, opts)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res *JobResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := job.Run(context.Background())
				done <- outcome{res, err}
			}()
			select {
			case out := <-done:
				if out.err != nil {
					t.Fatal(out.err)
				}
				if out.res.Recoveries != 1 {
					t.Errorf("Recoveries = %d, want 1", out.res.Recoveries)
				}
				if out.res.SinkRecords != 400 {
					t.Errorf("SinkRecords = %d, want 400", out.res.SinkRecords)
				}
				if out.res.LostRecords != 0 {
					t.Errorf("LostRecords = %d, want 0", out.res.LostRecords)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("kill deadlocked behind a stalled downstream; abort is not honored on a blocked send path")
			}
		})
	}
}

// TestBatchLingerAtLowRate pins the linger clock's refresh-on-wake rule. The
// linger check reads a cached wall time, not the clock; at 500 rec/s and a
// 1 ms linger what keeps that honest is the source refreshing the cache every
// time it wakes from pacing. Each record then sees the 2 ms that passed and
// flushes its predecessor with it: batches of two at most, a record waiting
// one period for the next. With only the every-8th-record backstop a batch
// would collect eight records and the first would wait 14 ms. The network
// case runs on the defaulted sizes: its 256-record frames fill only under
// saturation, and at a low rate linger still flushes as it does in memory.
func TestBatchLingerAtLowRate(t *testing.T) {
	for _, c := range []struct {
		transport string
		batchSize int
	}{
		{TransportBatched, 32},
		{TransportNetwork, 0},
	} {
		t.Run(c.transport, func(t *testing.T) {
			tel := telemetry.New()
			g := chainGraph(t, []dataflow.Operator{
				{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
				{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
			})
			factories := map[dataflow.OperatorID]Factory{
				"src": func(*TaskContext) (any, error) {
					return NewSource(func(_, i int64) (Record, bool) { return Record{Value: i, Time: i}, true }), nil
				},
				"snk": func(*TaskContext) (any, error) { return NewSink(nil), nil },
			}
			job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, 2), factories, JobOptions{
				RecordsPerSource: 200,
				SourceRate:       map[dataflow.OperatorID]float64{"src": 500},
				Transport:        c.transport,
				BatchSize:        c.batchSize,
				BatchLinger:      time.Millisecond,
				Telemetry:        tel,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.SinkRecords != 200 {
				t.Fatalf("sink saw %d records, want 200", res.SinkRecords)
			}
			// A source that falls a few periods behind (a loaded host, the race
			// detector) legitimately batches its catch-up burst, so the pin is on
			// the mean batch — 2 against 8 — and the latency bound sits between
			// the two regimes (2 ms and 14 ms).
			sizes := tel.Histogram("exchange.batch_size").Snapshot()
			if mean := sizes.Sum / float64(sizes.Count); mean > 4 {
				t.Errorf("mean flushed batch holds %.1f records (max %v), want at most 2: the linger check is reading a stale clock", mean, sizes.Max)
			}
			if p99 := tel.Histogram("latency.snk").Snapshot().Quantile(0.99); p99 > 0.010 && !raceEnabled {
				t.Errorf("sink latency p99 = %.1f ms, want a few ms", p99*1e3)
			}
		})
	}
}

// TestTransportValidation pins option handling: unknown names are rejected,
// the empty name means unary, and batch sizes clamp to the channel
// capacity so a single batch can always acquire its credits.
func TestTransportValidation(t *testing.T) {
	build := func(opts JobOptions) (*Job, error) {
		g := chainGraph(t, []dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		})
		factories := map[dataflow.OperatorID]Factory{
			"src": func(*TaskContext) (any, error) {
				return NewSource(func(task, i int64) (Record, bool) { return Record{Value: i}, true }), nil
			},
			"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
		}
		opts.RecordsPerSource = 10
		return NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 2), factories, opts)
	}
	if _, err := build(JobOptions{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	j, err := build(JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Transport() != TransportUnary {
		t.Errorf("default transport = %q, want unary", j.Transport())
	}
	j, err = build(JobOptions{Transport: TransportBatched, ChannelCapacity: 8, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.opts.BatchSize; got != 8 {
		t.Errorf("BatchSize not clamped to ChannelCapacity: got %d, want 8", got)
	}
	if got := j.opts.BatchLinger; got != DefaultBatchLinger {
		t.Errorf("BatchLinger default = %v, want %v", got, DefaultBatchLinger)
	}
}

// TestCreditGate unit-tests the flow-control primitive: capacity bounds
// acquisition, concurrent waiters all make progress as credits return, and
// abort releases a blocked waiter.
func TestCreditGate(t *testing.T) {
	t.Run("bounds", func(t *testing.T) {
		g := newCreditGate(4)
		abort := make(chan struct{})
		if ok, stalled := g.acquire(4, abort); !ok || stalled {
			t.Fatalf("acquire(4) = (%v, %v), want (true, false)", ok, stalled)
		}
		close(abort)
		if ok, _ := g.acquire(1, abort); ok {
			t.Fatal("acquire past capacity succeeded without a release")
		}
	})
	t.Run("concurrent-waiters-drain", func(t *testing.T) {
		g := newCreditGate(1)
		abort := make(chan struct{})
		const waiters = 8
		var done sync.WaitGroup
		var acquired atomic.Int64
		for i := 0; i < waiters; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				if ok, _ := g.acquire(1, abort); ok {
					acquired.Add(1)
				}
			}()
		}
		// Return credits one at a time; the chained wakeup must reach every
		// waiter even though the notify channel holds a single token.
		for i := 0; i < waiters; i++ {
			g.release(1)
			time.Sleep(time.Millisecond)
		}
		done.Wait()
		if acquired.Load() != waiters {
			t.Errorf("%d of %d waiters acquired", acquired.Load(), waiters)
		}
	})
	t.Run("abort-unblocks", func(t *testing.T) {
		g := newCreditGate(1)
		g.avail.Store(0)
		abort := make(chan struct{})
		res := make(chan bool, 1)
		go func() {
			ok, _ := g.acquire(1, abort)
			res <- ok
		}()
		close(abort)
		select {
		case ok := <-res:
			if ok {
				t.Error("aborted acquire reported success")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("acquire did not honor abort")
		}
	})
}
