package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"capsys/internal/dataflow"
)

// buildGraph assembles a logical graph from (id, kind, parallelism,
// selectivity) tuples and linear edges.
func chainGraph(t testing.TB, ops []dataflow.Operator) *dataflow.LogicalGraph {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ops); i++ {
		if err := g.AddEdge(dataflow.Edge{From: ops[i-1].ID, To: ops[i].ID}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// onePerWorker assigns tasks round-robin across workers.
func roundRobinPlan(t testing.TB, g *dataflow.LogicalGraph, numWorkers int) *dataflow.Plan {
	t.Helper()
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	pl := dataflow.NewPlan()
	for i, task := range phys.Tasks() {
		pl.Assign(task, i%numWorkers)
	}
	return pl
}

func bigWorkers(n, slots int) ClusterSpec {
	ws := make([]WorkerSpec, n)
	for i := range ws {
		ws[i] = WorkerSpec{ID: fmt.Sprintf("w%d", i), Slots: slots, Cores: 1e6, IOBps: 1e12, NetBps: 1e12}
	}
	return ClusterSpec{Workers: ws}
}

// countAgg accumulates a record count as a JSON integer.
func countAgg(acc []byte, _ Record) []byte {
	n := 0
	if acc != nil {
		_ = json.Unmarshal(acc, &n)
	}
	n++
	out, _ := json.Marshal(n)
	return out
}

func countResult(key string, start, end int64, acc []byte) Record {
	n := 0
	_ = json.Unmarshal(acc, &n)
	return Record{Key: key, Value: n, Time: end}
}

func TestSimplePipeline(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "double", Kind: dataflow.KindMap, Parallelism: 3, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	var sunk atomic.Int64
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%7), Value: i, Time: i}, true
			}), nil
		},
		"double": func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record {
				r.Value = r.Value.(int64) * 2
				return r
			}), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(Record) { sunk.Add(1) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, 4), factories, JobOptions{RecordsPerSource: 500})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceRecords != 1000 {
		t.Errorf("SourceRecords = %d, want 1000", res.SourceRecords)
	}
	if sunk.Load() != 1000 || res.SinkRecords != 1000 {
		t.Errorf("sink saw %d / %d records, want 1000", sunk.Load(), res.SinkRecords)
	}
	// Per-task stats add up.
	var mapIn int64
	for id, st := range res.Tasks {
		if id.Op == "double" {
			mapIn += st.RecordsIn
		}
		if st.UsefulFraction < 0 || st.UsefulFraction > 1 {
			t.Errorf("task %v useful fraction %v", id, st.UsefulFraction)
		}
	}
	if mapIn != 1000 {
		t.Errorf("map consumed %d records, want 1000", mapIn)
	}
	if res.OperatorInRate("double") <= 0 {
		t.Error("OperatorInRate(double) not positive")
	}
}

func TestFilterAndFlatMap(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "odd", Kind: dataflow.KindFilter, Parallelism: 2, Selectivity: 0.5},
		{ID: "dup", Kind: dataflow.KindFlatMap, Parallelism: 2, Selectivity: 2},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	var sunk atomic.Int64
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprint(i), Value: i, Time: i}, true
			}), nil
		},
		"odd": func(*TaskContext) (any, error) {
			return NewFilter(func(r Record) bool { return r.Value.(int64)%2 == 1 }), nil
		},
		"dup": func(*TaskContext) (any, error) {
			return NewFlatMap(func(r Record, emit Emit) {
				emit(r)
				emit(r)
			}), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(Record) { sunk.Add(1) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, 4), factories, JobOptions{RecordsPerSource: 400})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 400 records -> 200 odd -> 400 duplicated.
	if sunk.Load() != 400 {
		t.Errorf("sink saw %d records, want 400", sunk.Load())
	}
}

func TestTumblingWindowCount(t *testing.T) {
	// One key, timestamps 0..999, tumbling window of 100ms: 10 windows of
	// 100 records each.
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 0.01},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	var results []int
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: "k", Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(r Record) { results = append(results, r.Value.(int)) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{
		RecordsPerSource: 1000,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d windows, want 10 (%v)", len(results), results)
	}
	for i, n := range results {
		if n != 100 {
			t.Errorf("window %d count = %d, want 100", i, n)
		}
	}
}

func TestSlidingWindowOverlap(t *testing.T) {
	// Size 100, slide 50: records land in two windows each (except the
	// first 50 timestamps which only fit the [0,100) window... with starts
	// at -50 excluded since start < 0 is skipped).
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 0.02},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	total := 0
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: "k", Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 50, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(r Record) { total += r.Value.(int) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{
		RecordsPerSource: 500,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every record falls in 2 windows except timestamps 0..49 (1 window).
	want := 500*2 - 50
	if total != want {
		t.Errorf("sliding window total count = %d, want %d", total, want)
	}
}

func TestTumblingWindowJoin(t *testing.T) {
	// Left source emits (k, i) at t=i; right emits the same; window 100.
	// Every (key, window) pair holds matching left/right records.
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
				if l.Value.(int64) == r.Value.(int64) { // state keeps the stored type
					return Record{Key: l.Key, Value: l.Value, Time: l.Time}, true
				}
				return Record{}, false
			}), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(Record) { joined.Add(1) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, 4), factories, JobOptions{
		RecordsPerSource: 300,
		Stateful:         map[dataflow.OperatorID]bool{"join": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every left record joins exactly its equal right record.
	if joined.Load() != 300 {
		t.Errorf("joined %d pairs, want 300", joined.Load())
	}
}

func TestSessionWindow(t *testing.T) {
	// Bursts of 10 records (1ms apart) separated by 100ms gaps; session gap
	// 50ms -> one session per burst.
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "sess", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 0.1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	var sessions []int
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				burst := i / 10
				within := i % 10
				return Record{Key: "user", Value: i, Time: burst*200 + within}, true
			}), nil
		},
		"sess": func(*TaskContext) (any, error) {
			return NewSessionWindow(50, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) {
			return NewSink(func(r Record) { sessions = append(sessions, r.Value.(int)) }), nil
		},
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{
		RecordsPerSource: 100,
		Stateful:         map[dataflow.OperatorID]bool{"sess": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 10 {
		t.Fatalf("got %d sessions, want 10 (%v)", len(sessions), sessions)
	}
	for i, n := range sessions {
		if n != 10 {
			t.Errorf("session %d count = %d, want 10", i, n)
		}
	}
}

// The paper's core effect, live: co-locating two CPU-heavy tasks on one
// worker doubles the demand on that worker's CPU meter, and the meter paces
// it, so the packed run cannot finish before twice the spread run's CPU time
// has been served on one core. The comparison is made on the CPU draws the
// tasks report and on the meter's rate, not between two wall-clock runs:
// load on the machine only ever slows a run down, so the one wall-clock check
// left — that each run took at least the time its meter paced it for —
// cannot fail under it.
func TestColocationContention(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "heavy", Kind: dataflow.KindInference, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 2},
	})
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprint(i), Value: i, Time: i}, true
			}), nil
		},
		"heavy": func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record { return r }), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	spec := ClusterSpec{Workers: []WorkerSpec{
		{ID: "w0", Slots: 6, Cores: 1, IOBps: 1e12, NetBps: 1e12},
		{ID: "w1", Slots: 6, Cores: 1, IOBps: 1e12, NetBps: 1e12},
	}}
	opts := JobOptions{
		RecordsPerSource: 150,
		PerRecordCPU:     map[dataflow.OperatorID]float64{"heavy": 1e-3},
	}
	// paced is the shortest time in which a 1-core meter with its 5 % burst
	// (NewWorkerResources) serves draw core-seconds: every struck token is
	// drawn before its task closes, and by time t the meter has handed out at
	// most burst + t×cores.
	paced := func(draw float64) time.Duration {
		return time.Duration((draw - 0.05) * float64(time.Second))
	}
	// run returns the CPU draw of the busiest worker, checking that the run
	// took at least the time the meter paced that draw for.
	run := func(heavyWorkers [2]int) float64 {
		pl := dataflow.NewPlan()
		for _, task := range phys.TasksOf("heavy") {
			pl.Assign(task, heavyWorkers[task.Index])
		}
		for _, op := range []dataflow.OperatorID{"src", "sink"} {
			for i, task := range phys.TasksOf(op) {
				pl.Assign(task, i%2)
			}
		}
		job, err := NewJob(g, pl, spec, factories, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		draws := make([]float64, len(spec.Workers))
		for _, ts := range res.Tasks {
			draws[ts.Worker] += ts.CPUDraw
		}
		busiest := slices.Max(draws)
		if res.Elapsed < paced(busiest) {
			t.Errorf("heavy tasks on workers %v: %v elapsed, but the meter paces %.3f core-seconds for at least %v",
				heavyWorkers, res.Elapsed, busiest, paced(busiest))
		}
		return busiest
	}
	spread := run([2]int{0, 1})
	packed := run([2]int{0, 0})
	// 300 records × 1 ms: the packed worker draws 0.3 core-seconds, paced
	// for at least 0.25 s; each spread worker 0.15, paced for 0.1 s.
	if packed < 0.29 || spread < 0.14 || paced(packed) < paced(spread)*2 {
		t.Errorf("busiest worker drew %.3f core-seconds packed (paced %v), %.3f spread (paced %v); want packing to double the pacing",
			packed, paced(packed), spread, paced(spread))
	}
}

func TestBackpressureThrottlesSource(t *testing.T) {
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
		ChannelCapacity:  4,
		PerRecordCPU:     map[dataflow.OperatorID]float64{"slow": 1e-3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline cannot finish faster than the slow operator: 200 x 1ms,
	// minus the meter's 5% burst allowance (~50 records).
	if res.Elapsed < 140*time.Millisecond {
		t.Errorf("run finished in %v; backpressure not enforced", res.Elapsed)
	}
	src := res.Tasks[dataflow.TaskID{Op: "src", Index: 0}]
	if src.BackpressureT == 0 {
		t.Error("source reports zero backpressure time despite slow consumer")
	}
}

func TestSourceRateLimiting(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i}, true
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 2), factories, JobOptions{
		RecordsPerSource: 100,
		SourceRate:       map[dataflow.OperatorID]float64{"src": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 100 records at 1000 rec/s takes ~100ms.
	if res.Elapsed < 90*time.Millisecond {
		t.Errorf("rate-limited run finished in %v, want >= ~100ms", res.Elapsed)
	}
}

func TestContextCancellationStopsSources(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i}, true
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 2), factories, JobOptions{
		RecordsPerSource: 1 << 40, // effectively infinite
		SourceRate:       map[dataflow.OperatorID]float64{"src": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan *JobResult, 1)
	go func() {
		res, err := job.Run(ctx)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.SourceRecords == 0 {
			t.Error("no records before cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job did not stop after context cancellation")
	}
}

func TestNewJobValidation(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) { return Record{}, false }), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	plan := roundRobinPlan(t, g, 1)
	good := bigWorkers(1, 2)

	if _, err := NewJob(g, plan, good, factories, JobOptions{}); err == nil {
		t.Error("zero RecordsPerSource accepted")
	}
	if _, err := NewJob(g, plan, ClusterSpec{}, factories, JobOptions{RecordsPerSource: 1}); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := NewJob(g, dataflow.NewPlan(), good, factories, JobOptions{RecordsPerSource: 1}); err == nil {
		t.Error("unassigned tasks accepted")
	}
	if _, err := NewJob(g, plan, bigWorkers(1, 1), factories, JobOptions{RecordsPerSource: 1}); err == nil {
		t.Error("slot overflow accepted")
	}
	missing := map[dataflow.OperatorID]Factory{"src": factories["src"]}
	if _, err := NewJob(g, plan, good, missing, JobOptions{RecordsPerSource: 1}); err == nil {
		t.Error("missing factory accepted")
	}
	badPlan := dataflow.NewPlan()
	badPlan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 5)
	badPlan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 0)
	if _, err := NewJob(g, badPlan, good, factories, JobOptions{RecordsPerSource: 1}); err == nil {
		t.Error("out-of-range worker accepted")
	}
}

func TestWindowRequiresState(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) { return Record{}, false }), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	// Stateful not set for "win": job construction must fail at Open.
	_, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{RecordsPerSource: 1})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 3), factories, JobOptions{RecordsPerSource: 1})
	if _, err := job.Run(context.Background()); err == nil {
		t.Error("window without state ran successfully")
	}
}

func TestJobResultMetricsRegistry(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 2), factories, JobOptions{RecordsPerSource: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics.Snapshot()
	if snap["src[0].records_out"] != 50 {
		t.Errorf("src records_out = %v, want 50", snap["src[0].records_out"])
	}
	if snap["sink[0].records_in"] != 50 {
		t.Errorf("sink records_in = %v, want 50", snap["sink[0].records_in"])
	}
	if _, ok := snap["sink[0].useful_fraction"]; !ok {
		t.Error("useful_fraction missing from registry")
	}
}

// An operator error mid-stream must terminate the job with the error, not
// deadlock it: the failed task keeps draining its inbox so upstream senders
// never block forever.
func TestOperatorErrorTerminatesJob(t *testing.T) {
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "boom", Kind: dataflow.KindMap, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	n := 0
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"boom": func(*TaskContext) (any, error) {
			return NewProcess(func(ctx *TaskContext, rec Record, emit Emit) error {
				n++
				if n > 3 {
					return fmt.Errorf("synthetic failure")
				}
				emit(rec)
				return nil
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	// Tiny channel capacity so upstream blocks quickly if the failed task
	// stops draining.
	job, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 4), factories, JobOptions{
		RecordsPerSource: 10_000,
		ChannelCapacity:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := job.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("operator error swallowed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job deadlocked after operator error")
	}
}
