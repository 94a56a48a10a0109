package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
)

// keyedWorkload is the lifecycle workload: a keyed window over a large key
// space on the in-memory batched transport, checkpointed twelve times, with
// one live rescale 4→6 and one worker kill in every saturated repetition.
// State access, key-group routing, barrier alignment, snapshot, repartition,
// restore and the supervisor in engine/runtime.go do the work; the wire none.
type keyedWorkload struct {
	g         *dataflow.LogicalGraph
	plan      *dataflow.Plan
	cluster   engine.ClusterSpec
	perSource int64
	keys      int64
	pacedRate float64
	keyNames  []string // pre-built, so the generator formats nothing per record
	window    int64
	want      want
}

const (
	keyedWorkers      = 3
	keyedSlots        = 6
	keyedEpochs       = 12
	keyedRescaleEpoch = 3
	keyedKillEpoch    = 7
	keyedKillWorker   = 1
)

func setupKeyed(_ context.Context, p params, _ int64, tr *tracer) (instance, error) {
	w := &keyedWorkload{perSource: p.keyedPerSource, keys: p.keyedKeys, pacedRate: p.keyedPacedRate}
	err := tr.do("dataflow", "build-graph", func() (err error) {
		w.g, err = buildGraph([]dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
			{ID: "win", Kind: dataflow.KindWindow, Parallelism: 4, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		}, []dataflow.Edge{{From: "src", To: "win"}, {From: "win", To: "sink"}})
		if err != nil {
			return err
		}
		w.plan, err = roundRobinPlan(w.g, keyedWorkers)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.cluster = unmeteredWorkers(keyedWorkers, keyedSlots)
	w.keyNames = make([]string, w.keys)
	for i := range w.keyNames {
		w.keyNames[i] = fmt.Sprintf("k%06d", i)
	}
	// Event time is the record index; a window spans a sixth of an epoch,
	// so windows open and close all through the run and a snapshot always
	// finds tens of thousands of live accumulators.
	w.window = w.perSource / (keyedEpochs * 6)
	if w.window < 1 {
		w.window = 1
	}
	return w, nil
}

func (w *keyedWorkload) gen(task, i int64) engine.Record {
	// A multiplicative scramble spreads consecutive records over the key
	// space; both tasks walk it in different orders.
	k := uint64(i*2+task) * 0x9E3779B97F4A7C15 >> 20 % uint64(w.keys)
	return engine.Record{Key: w.keyNames[k], Value: int64(1), Time: i}
}

func countAgg(acc []byte, _ engine.Record) []byte {
	n := 0
	if acc != nil {
		_ = json.Unmarshal(acc, &n) // acc is this function's own output
	}
	out, _ := json.Marshal(n + 1) // an int always marshals
	return out
}

func countResult(key string, _, end int64, acc []byte) engine.Record {
	n := 0
	_ = json.Unmarshal(acc, &n)
	return engine.Record{Key: key, Value: int64(n), Time: end}
}

// stampedAcc is the paced run's accumulator: the count plus the latest due
// time among the records counted, so a window result is timed from the
// creation of the last event that contributed to it.
type stampedAcc struct {
	N int64 `json:"n"`
	T int64 `json:"t"`
}

func stampedAgg(acc []byte, rec engine.Record) []byte {
	var a stampedAcc
	if acc != nil {
		_ = json.Unmarshal(acc, &a)
	}
	a.N++
	if t := rec.Value.(int64); t > a.T {
		a.T = t
	}
	out, _ := json.Marshal(a)
	return out
}

func stampedResult(key string, _, _ int64, acc []byte) engine.Record {
	var a stampedAcc
	_ = json.Unmarshal(acc, &a)
	return engine.Record{Key: key, Value: a.N, Time: a.T}
}

func (w *keyedWorkload) job(m repMode, transport string, lifecycle bool, n int64, rate float64, sinks *sinkSet, gens *stamperSet) (*engine.Job, error) {
	factories := map[dataflow.OperatorID]engine.Factory{
		"src": sourceSpec{gen: w.gen, rate: rate / 2, expect: n, stampValue: true, tr: m.tr, stampers: gens}.factory,
		"win": func(*engine.TaskContext) (any, error) {
			if rate > 0 {
				return engine.NewSlidingWindow(w.window, w.window, stampedAgg, stampedResult), nil
			}
			return engine.NewSlidingWindow(w.window, w.window, countAgg, countResult), nil
		},
		"sink": sinks.factory,
	}
	opts := engine.JobOptions{
		RecordsPerSource: n,
		Transport:        transport,
		DisableFusion:    transport == engine.TransportUnary,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
		Telemetry:        m.tel,
	}
	if rate > 0 {
		opts.SourceRate = map[dataflow.OperatorID]float64{"src": rate}
	}
	if transport != engine.TransportUnary {
		opts.SnapshotInterval = n / keyedEpochs
	}
	if lifecycle {
		var mu sync.Mutex
		cur, phys := w.plan, (*dataflow.PhysicalGraph)(nil)
		opts.Rescales = []engine.RescalePlan{{Op: "win", Parallelism: 6, AtEpoch: keyedRescaleEpoch}}
		opts.FaultPlan = engine.FaultPlan{KillWorkers: []engine.WorkerKill{{Worker: keyedKillWorker, AtEpoch: keyedKillEpoch}}}
		opts.OnRescale = func(ev engine.RescaleEvent, prev *dataflow.Plan, np *dataflow.PhysicalGraph) (*dataflow.Plan, error) {
			mu.Lock()
			defer mu.Unlock()
			cur, phys = replan(np, prev, ev.DeadWorkers), np
			return cur, nil
		}
		opts.OnFailure = func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			mu.Lock()
			defer mu.Unlock()
			if phys == nil {
				var err error
				if phys, err = dataflow.Expand(w.g); err != nil {
					return nil, err
				}
			}
			cur = replan(phys, cur, ev.DeadWorkers)
			return cur, nil
		}
	}
	var job *engine.Job
	err := m.tr.do("engine", "NewJob", func() (err error) {
		job, err = engine.NewJob(w.g, w.plan, w.cluster, factories, opts)
		return err
	})
	return job, err
}

// replan keeps every task of prev that sits on a live worker where it is and
// packs the rest onto the live workers with the most free slots.
func replan(phys *dataflow.PhysicalGraph, prev *dataflow.Plan, dead []int) *dataflow.Plan {
	isDead := map[int]bool{}
	for _, d := range dead {
		isDead[d] = true
	}
	used := make([]int, keyedWorkers)
	np := dataflow.NewPlanSized(phys.NumTasks())
	var homeless []dataflow.TaskID
	for _, t := range phys.Tasks() {
		if w, ok := prev.Worker(t); ok && !isDead[w] {
			np.Assign(t, w)
			used[w]++
		} else {
			homeless = append(homeless, t)
		}
	}
	for _, t := range homeless {
		best := -1
		for w := 0; w < keyedWorkers; w++ {
			if !isDead[w] && used[w] < keyedSlots && (best < 0 || used[w] < used[best]) {
				best = w
			}
		}
		np.Assign(t, best)
		used[best]++
	}
	return np
}

func (w *keyedWorkload) reference(ctx context.Context) (err error) {
	w.want, err = referenceRun(ctx, func(sinks *sinkSet) (*engine.Job, error) {
		return w.job(repMode{}, engine.TransportUnary, false, w.perSource, 0, sinks, nil)
	})
	return err
}

func (w *keyedWorkload) rep(ctx context.Context, m repMode) (*repOut, error) {
	k := newRunKit(m, w.perSource, w.pacedRate, 2)
	job, err := w.job(m, engine.TransportBatched, !m.paced, k.n, k.rate, k.sinks, k.gens)
	if err != nil {
		return nil, err
	}
	out, err := engineRun(ctx, m, job, k.sinks, w.want, k.gens)
	if err != nil {
		return nil, err
	}
	if !m.paced && !m.warm {
		// Exactly one applied rescale and one recovery, or the repetition
		// did not measure the lifecycle it is here for.
		if out.res.Rescales != 1 || out.res.Recoveries != 1 {
			out.failed += out.ops
			out.layer["bench.lifecycle_miss"] = 1
		}
	}
	return out, nil
}
