package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// TestMeterShardConcurrentExactness: many goroutines striking their own
// shards — with snapshot readers polling Consumed throughout — must merge to
// the exact total. The shard contract is single-writer per shard, not
// single-reader per meter.
func TestMeterShardConcurrentExactness(t *testing.T) {
	m := NewMeter(1e12, 1e12) // effectively unmetered: pacing is not under test
	const (
		writers = 8
		strikes = 10000
	)
	shards := make([]*MeterShard, writers)
	for i := range shards {
		shards[i] = m.NewShard()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Consumed must be monotone under concurrent strikes: a shard
			// publishes complete totals, never partial ones.
			if got := m.Consumed(); got < last {
				t.Errorf("Consumed went backward: %v -> %v", last, got)
				return
			} else {
				last = got
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(sh *MeterShard) {
			defer wg.Done()
			for j := 0; j < strikes; j++ {
				sh.Strike(0.5)
				if j%64 == 0 {
					sh.Draw()
				}
			}
			sh.Draw()
		}(shards[i])
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	want := float64(writers) * float64(strikes) * 0.5
	if got := m.Consumed(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Consumed = %v, want %v", got, want)
	}
}

// TestMeterShardDrawPaces: coalesced draws still hit the token bucket — a
// shard that strikes more than the bucket holds must sleep the deficit off
// on Draw. Zero and negative strikes are no-ops, and nil meters and shards
// are safe.
func TestMeterShardDrawPaces(t *testing.T) {
	m := NewMeter(1000, 10) // 1000 tokens/s, 10 burst
	sh := m.NewShard()
	start := time.Now()
	sh.Strike(60) // 10 burst + 50 deficit -> >= ~50ms of pacing
	sh.Draw()
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("Draw returned in %v; a 50-token deficit at 1000/s must pace the caller", el)
	}
	if m.Blocked() == 0 {
		t.Error("meter recorded no blocked time")
	}
	if m.Rate() != 1000 {
		t.Errorf("Rate = %v", m.Rate())
	}
	sh.Strike(0)
	sh.Strike(-5)
	sh.Draw()
	if got := m.Consumed(); got != 60 {
		t.Errorf("Consumed = %v after zero and negative strikes, want 60", got)
	}
	var nilM *Meter
	nilSh := nilM.NewShard()
	nilSh.Strike(10)
	nilSh.Draw()
	if nilSh != nil || nilM.Consumed() != 0 {
		t.Error("nil meter handed out a shard or consumed tokens")
	}
}

// TestMeterShardAllocFree: the strike/draw hot path must not allocate — the
// whole point of sharding is a zero-alloc, contention-free per-record cost.
func TestMeterShardAllocFree(t *testing.T) {
	m := NewMeter(1e12, 1e12)
	sh := m.NewShard()
	allocs := testing.AllocsPerRun(1000, func() {
		sh.Strike(1)
		sh.Draw()
	})
	if allocs != 0 {
		t.Errorf("Strike+Draw allocates %v times per op, want 0", allocs)
	}
}

// TestMeterUtilizationSeesShards: utilization must reflect shard-accounted
// consumption, since the live saturation gauges read it.
func TestMeterUtilizationSeesShards(t *testing.T) {
	m := NewMeter(1e6, 1e6)
	sh := m.NewShard()
	sh.Strike(1000)
	if u := m.Utilization(); u <= 0 {
		t.Errorf("Utilization = %v after striking 1000 tokens, want > 0", u)
	}
}

// keepLast is the in-process executor for a fault-free job that keeps the
// attempt it ran, whose meters and namespaces a test can then read.
type keepLast struct {
	*localExecutor
	last *attempt
}

func (x *keepLast) RunAttempt(ctx context.Context, at AttemptSpec) (AttemptEnd, error) {
	att, err := x.j.buildAttempt(at.No, nil, at.Plan, x.faults, nil, nil)
	if err != nil {
		return AttemptEnd{}, err
	}
	at.Up()
	err = att.run(ctx)
	att.close()
	x.last = att
	return AttemptEnd{Reports: []*WorkerReport{att.report()}}, err
}

// runKeepAttempt is Job.Run for a fault-free job, handing back also the
// attempt that ran it.
func runKeepAttempt(t *testing.T, job *Job) (*JobResult, *attempt) {
	t.Helper()
	x := &keepLast{localExecutor: &localExecutor{j: job, faults: newFaultState(job.opts.FaultPlan, job.clk(), job.clk, nil)}}
	res, err := job.sup.Run(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	return res, x.last
}

// TestStateIOPaces: a namespace's callback only strikes its task's IO shard,
// and the task loop pays the shard into the worker's bucket — once per batch,
// per record on the unary path, per source record for members fused behind a
// source. So a stateful window on a worker with a small IOBps still runs at
// the meter's pace; the meter counts exactly the bytes the namespace was
// charged; and the strikes of a window fused behind another task are paid
// while it runs, not all at its finish — which would let every result out at
// full speed and then sleep.
func TestStateIOPaces(t *testing.T) {
	edge := func(from, to dataflow.OperatorID, fwd bool) dataflow.Edge {
		e := dataflow.Edge{From: from, To: to}
		if fwd {
			e.Mode = dataflow.Forward
		}
		return e
	}
	for _, c := range []struct {
		name      string
		transport string
		edges     []dataflow.Edge
		fused     bool
		// head is the operator whose goroutine runs the window: the task
		// that pays, and waits on, the window's state I/O.
		head dataflow.OperatorID
		// stamped attaches telemetry, which makes a source clock each record
		// on its own instead of over runs of records.
		stamped bool
	}{
		{"fused-behind-operator", TransportBatched,
			[]dataflow.Edge{edge("src", "map", false), edge("map", "win", true), edge("win", "sink", false)}, true, "map", false},
		{"fused-behind-source", TransportBatched,
			[]dataflow.Edge{edge("src", "win", true), edge("win", "sink", false)}, true, "src", false},
		{"fused-behind-stamped-source", TransportBatched,
			[]dataflow.Edge{edge("src", "win", true), edge("win", "sink", false)}, true, "src", true},
		{"unary", TransportUnary,
			[]dataflow.Edge{edge("src", "map", false), edge("map", "win", false), edge("win", "sink", false)}, false, "win", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var arrivals []time.Duration
			var start time.Time
			run := func(ioBps float64) (*JobResult, *attempt) {
				g := dataflow.NewLogicalGraph()
				kinds := map[dataflow.OperatorID]dataflow.OperatorKind{"src": dataflow.KindSource, "map": dataflow.KindMap, "win": dataflow.KindWindow}
				for _, e := range c.edges {
					if err := g.AddOperator(dataflow.Operator{ID: e.From, Kind: kinds[e.From], Parallelism: 1, Selectivity: 1}); err != nil {
						t.Fatal(err)
					}
				}
				if err := g.AddOperator(dataflow.Operator{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1}); err != nil {
					t.Fatal(err)
				}
				for _, e := range c.edges {
					if err := g.AddEdge(e); err != nil {
						t.Fatal(err)
					}
				}
				factories := map[dataflow.OperatorID]Factory{
					"src": func(*TaskContext) (any, error) {
						return NewSource(func(_, i int64) (Record, bool) {
							return Record{Key: fmt.Sprintf("k%d", i%40), Value: i, Time: i}, true
						}), nil
					},
					"map": func(*TaskContext) (any, error) { return NewMap(func(r Record) Record { return r }), nil },
					"win": func(*TaskContext) (any, error) { return NewSlidingWindow(50, 50, countAgg, countResult), nil },
					"sink": func(*TaskContext) (any, error) {
						return NewSink(func(Record) { arrivals = append(arrivals, time.Since(start)) }), nil
					},
				}
				spec := ClusterSpec{Workers: []WorkerSpec{{ID: "w0", Slots: 4, Cores: 1e6, IOBps: ioBps, NetBps: 1e12}}}
				var tel *telemetry.Telemetry
				if c.stamped {
					tel = telemetry.New()
				}
				job, err := NewJob(g, roundRobinPlan(t, g, 1), spec, factories, JobOptions{
					RecordsPerSource: 3000,
					Transport:        c.transport,
					Stateful:         map[dataflow.OperatorID]bool{"win": true},
					Telemetry:        tel,
				})
				if err != nil {
					t.Fatal(err)
				}
				arrivals, start = nil, time.Now()
				return runKeepAttempt(t, job)
			}
			charged := func(att *attempt) float64 {
				total := 0
				for _, rt := range att.tasks {
					if rt.ctx.State != nil {
						st := rt.ctx.State.Stats()
						total += st.ReadBytes + st.WriteBytes
					}
				}
				return float64(total)
			}

			// The bytes charged are a function of the stream alone, so an
			// unmetered run sizes the meter: 250 ms of state I/O, the first
			// 50 ms of it covered by the bucket's burst.
			res, att := run(1e12)
			if _, ok := res.Metrics.Snapshot()["engine.fuse.tasks"]; ok != c.fused {
				t.Fatalf("run reports fusion=%v, want %v", ok, c.fused)
			}
			rate := charged(att) / 0.25
			res, att = run(rate)
			elapsed := time.Since(start)
			io := att.workers[0].IO
			if got, want := io.Consumed(), charged(att); got != want {
				t.Errorf("IO meter consumed %v tokens, the namespace was charged %v bytes", got, want)
			}
			for _, sh := range *io.shards.Load() {
				if sh.pending != 0 {
					t.Errorf("a shard ended the run with %v tokens struck and not drawn", sh.pending)
				}
			}
			floor := time.Duration(0.8 * 0.2 * float64(time.Second))
			if res.Elapsed < floor {
				t.Errorf("job took %v at %.0f B/s; 200 ms of metered state I/O must take at least %v", res.Elapsed, rate, floor)
			}
			// Waiting on the IO bucket is part of processing: the task paying
			// the window's state I/O must be busy for the 200 ms the meter
			// holds it, or DS2 would read its capacity as far above what it can
			// do. The bound comes from the run's own metering, not from its
			// wall time, which grows with the load on the machine while the
			// task's busy time cannot fall below its waits.
			if busy := res.Tasks[dataflow.TaskID{Op: c.head}].BusyTime; busy < floor {
				t.Errorf("%s was busy %v while 200 ms of state I/O paced it; waiting on the IO meter must count as busy", c.head, busy)
			}
			if len(arrivals) == 0 {
				t.Fatal("the sink saw no results")
			}
			if mid := arrivals[len(arrivals)/2]; mid < elapsed/4 {
				t.Errorf("half the results reached the sink %v into a %v run: the window's state I/O was not paced while it ran", mid, elapsed)
			}
		})
	}
}

// TestTaskDrawsSumToMeters: every token a worker's meters took is on
// exactly one task's report. Two metered src → map → window chains, each
// fused on its own worker, feed one sink: per worker, the tasks' CPU, IO and
// Net draws sum to the meters' Consumed. The chain's state I/O is struck on
// its head's IO shard, so the head (the source) carries the window's bytes
// and the fused members report none.
func TestTaskDrawsSumToMeters(t *testing.T) {
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "map", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "src", To: "map", Mode: dataflow.Forward},
		{From: "map", To: "win", Mode: dataflow.Forward},
		{From: "win", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	plan := dataflow.NewPlan()
	for i := 0; i < 2; i++ {
		for _, op := range []dataflow.OperatorID{"src", "map", "win"} {
			plan.Assign(dataflow.TaskID{Op: op, Index: i}, i)
		}
	}
	plan.Assign(dataflow.TaskID{Op: "sink"}, 0)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(_, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%40), Value: i, Time: i}, true
			}), nil
		},
		"map":  func(*TaskContext) (any, error) { return NewMap(func(r Record) Record { return r }), nil },
		"win":  func(*TaskContext) (any, error) { return NewSlidingWindow(50, 50, countAgg, countResult), nil },
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, plan, bigWorkers(2, 4), factories, JobOptions{
		RecordsPerSource: 2000,
		Transport:        TransportBatched,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
		PerRecordCPU:     map[dataflow.OperatorID]float64{"src": 1e-6, "map": 2e-6, "win": 3e-6, "sink": 1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, att := runKeepAttempt(t, job)
	if res.Metrics.Snapshot()["engine.fuse.tasks"] != 4 {
		t.Fatalf("engine.fuse.tasks = %v, want both chains' map and window fused", res.Metrics.Snapshot()["engine.fuse.tasks"])
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for w, wr := range att.workers {
		var cpu, io, net float64
		for id, ts := range res.Tasks {
			if plan.MustWorker(id) == w {
				cpu, io, net = cpu+ts.CPUDraw, io+ts.IODraw, net+ts.NetDraw
			}
		}
		for _, c := range []struct {
			res        string
			tasks, got float64
		}{{"cpu", cpu, wr.CPU.Consumed()}, {"io", io, wr.IO.Consumed()}, {"net", net, wr.Net.Consumed()}} {
			if !near(c.tasks, c.got) {
				t.Errorf("worker %d: tasks drew %v %s tokens, the meter consumed %v", w, c.tasks, c.res, c.got)
			}
		}
	}
	for _, rt := range att.tasks {
		if rt.id.Op != "win" {
			continue
		}
		st := rt.ctx.State.Stats()
		charged := float64(st.ReadBytes + st.WriteBytes)
		head := res.Tasks[dataflow.TaskID{Op: "src", Index: rt.id.Index}]
		if charged == 0 || head.IODraw != charged {
			t.Errorf("chain %d: head drew %v IO tokens, the window's namespace was charged %v bytes", rt.id.Index, head.IODraw, charged)
		}
		for _, op := range []dataflow.OperatorID{"map", "win"} {
			if io := res.Tasks[dataflow.TaskID{Op: op, Index: rt.id.Index}].IODraw; io != 0 {
				t.Errorf("fused member %s[%d] reports %v IO tokens, want 0", op, rt.id.Index, io)
			}
		}
	}
	if res.Tasks[dataflow.TaskID{Op: "win", Index: 1}].NetDraw == 0 {
		t.Error("win[1] sends to the sink on another worker but drew no Net tokens")
	}
}

// TestStateIORestorePaidInDowntime: the state I/O a restore strikes while
// its attempt is built is paid before the attempt comes up, so it lands in
// the job's recovery downtime. Paid by the first batch instead, the end
// totals would be the same but the cost would hide in the window's busy time.
// The window runs on an unmetered worker until the kill and is restored onto
// a metered one, so no I/O debt from before the kill delays the abort.
func TestStateIORestorePaidInDowntime(t *testing.T) {
	const restoreCost = 150 * time.Millisecond
	run := func(ioBps float64) (*JobResult, int) {
		g := chainGraph(t, []dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "win", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		})
		plan := dataflow.NewPlan()
		plan.Assign(dataflow.TaskID{Op: "src"}, 0)
		plan.Assign(dataflow.TaskID{Op: "win"}, 0)
		plan.Assign(dataflow.TaskID{Op: "sink"}, 1)
		// restored is the write the restore charged the window's namespace:
		// all it holds when the restored attempt's factory sees it.
		restored := 0
		factories := map[dataflow.OperatorID]Factory{
			"src": func(*TaskContext) (any, error) {
				return NewSource(func(_, i int64) (Record, bool) {
					return Record{Key: fmt.Sprintf("k%05d", i), Value: i, Time: i}, true
				}), nil
			},
			// One window spans the stream and every key is new, so the epoch-1
			// image holds one entry per record before it.
			"win": func(tctx *TaskContext) (any, error) {
				if w := tctx.State.Stats().WriteBytes; w > 0 {
					restored = w
				}
				return NewSlidingWindow(1e9, 1e9, countAgg, countResult), nil
			},
			"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
		}
		spec := ClusterSpec{Workers: []WorkerSpec{
			{ID: "w0", Slots: 3, Cores: 1e6, IOBps: 1e12, NetBps: 1e12},
			{ID: "w1", Slots: 3, Cores: 1e6, IOBps: 1e12, NetBps: 1e12},
			{ID: "w2", Slots: 3, Cores: 1e6, IOBps: ioBps, NetBps: 1e12},
		}}
		job, err := NewJob(g, plan, spec, factories, JobOptions{
			RecordsPerSource: 600,
			SnapshotInterval: 500,
			Transport:        TransportBatched,
			Stateful:         map[dataflow.OperatorID]bool{"win": true},
			FaultPlan:        FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 1}}},
			OnFailure: func(FailureEvent) (*dataflow.Plan, error) {
				next := dataflow.NewPlan()
				next.Assign(dataflow.TaskID{Op: "src"}, 0)
				next.Assign(dataflow.TaskID{Op: "win"}, 2)
				next.Assign(dataflow.TaskID{Op: "sink"}, 0)
				return next, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Recoveries != 1 || res.RestoredEpoch != 1 || restored == 0 {
			t.Fatalf("recoveries %d from epoch %d restoring %d bytes, want one restore of epoch 1's image", res.Recoveries, res.RestoredEpoch, restored)
		}
		return res, restored
	}
	// The image is a function of the stream alone, so an unmetered run sizes
	// the meter: restoring it costs restoreCost, the first 50 ms of it
	// covered by the fresh bucket's burst.
	_, image := run(1e12)
	rate := float64(image) / restoreCost.Seconds()
	res, image := run(rate)
	cost := time.Duration(float64(image) / rate * float64(time.Second))
	if burst := 50 * time.Millisecond; res.Downtime < cost-burst {
		t.Errorf("recovery downtime %v; restoring a %d-byte image at %.0f B/s takes %v, %v of it past the burst",
			res.Downtime, image, rate, cost, cost-burst)
	}
}

// BenchmarkMeterShardStrike measures the meter hot path: N goroutines
// striking private shards of one meter with coalesced draws.
func BenchmarkMeterShardStrike(b *testing.B) {
	m := NewMeter(1e12, 1e12)
	b.RunParallel(func(pb *testing.PB) {
		sh := m.NewShard()
		i := 0
		for pb.Next() {
			sh.Strike(1)
			if i++; i%64 == 0 {
				sh.Draw()
			}
		}
		sh.Draw()
	})
}

// TestCloseBackpressureNotBusy: a window that holds its results until Close
// and flushes them into a stalled downstream spends that flush waiting, and
// waiting is backpressure, not busy time — counted once, as everywhere else a
// task clocks itself. Otherwise the stall is booked twice and inflates the
// useful fraction DS2 divides by.
func TestCloseBackpressureNotBusy(t *testing.T) {
	const records = 100
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(_, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i), Value: i, Time: i}, true
			}), nil
		},
		// One window spans the whole stream: every result waits for Close.
		"win": func(*TaskContext) (any, error) { return NewSlidingWindow(1e9, 1e9, countAgg, countResult), nil },
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(Record) { time.Sleep(2 * time.Millisecond) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{
		RecordsPerSource: records,
		ChannelCapacity:  1,
		Transport:        TransportUnary,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	win := res.Tasks[dataflow.TaskID{Op: "win", Index: 0}]
	if win.RecordsOut != records {
		t.Fatalf("window emitted %d results, want %d", win.RecordsOut, records)
	}
	if win.BusyTime+win.BackpressureT > res.Elapsed {
		t.Errorf("window busy %v + backpressure %v exceeds the run's %v", win.BusyTime, win.BackpressureT, res.Elapsed)
	}
	if win.BusyTime >= win.BackpressureT {
		t.Errorf("window busy %v, backpressure %v: the Close-time stall was booked as busy", win.BusyTime, win.BackpressureT)
	}
}
