package main

import (
	"context"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
)

// simpleWorkload covers the two stateless shapes — linear-fused and
// fanout-net — which differ only in graph, plan and transport.
type simpleWorkload struct {
	g         *dataflow.LogicalGraph
	plan      *dataflow.Plan
	cluster   engine.ClusterSpec
	transport string
	srcTasks  int
	perSource int64
	pacedRate float64
	maps      []dataflow.OperatorID
	sinkPerIn int // sink records per source record
	want      want
}

// smallInt keeps values in the range Go boxes without allocating, so the
// generator adds no garbage to a run that is meant to show the engine's.
func smallInt(task, i int64) engine.Record {
	return engine.Record{Value: (task*31 + i) & 0x7f, Time: i}
}

func flipLowBit(r engine.Record) engine.Record {
	r.Value = r.Value.(int64) ^ 1
	return r
}

func setupLinear(_ context.Context, p params, _ int64, tr *tracer) (instance, error) {
	w := &simpleWorkload{transport: engine.TransportBatched, srcTasks: 1, perSource: p.linearPerSource,
		pacedRate: p.linearPacedRate, maps: []dataflow.OperatorID{"map"}, sinkPerIn: 1}
	err := tr.do("dataflow", "build-graph", func() (err error) {
		w.g, err = buildGraph([]dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "map", Kind: dataflow.KindMap, Parallelism: 1, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		}, []dataflow.Edge{
			{From: "src", To: "map", Mode: dataflow.Forward},
			{From: "map", To: "sink", Mode: dataflow.Forward},
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	// The chain lives whole on one worker: that is what lets the engine
	// fuse it. It is one chain, not two: on the two-vCPU reference box two
	// CPU-bound chains share one core's worth of throughput (3.5 M rec/s
	// each against 7 M rec/s alone) and whichever the host favours decides
	// the number, so a second chain adds noise and measures nothing more.
	w.plan = dataflow.NewPlan()
	for _, op := range []dataflow.OperatorID{"src", "map", "sink"} {
		w.plan.Assign(dataflow.TaskID{Op: op, Index: 0}, 0)
	}
	w.cluster = unmeteredWorkers(1, 4)
	return w, nil
}

func setupFanout(_ context.Context, p params, _ int64, tr *tracer) (instance, error) {
	w := &simpleWorkload{transport: engine.TransportNetwork, srcTasks: 2, perSource: p.fanoutPerSource,
		pacedRate: p.fanoutPacedRate, maps: []dataflow.OperatorID{"hot", "cold"}, sinkPerIn: 2}
	err := tr.do("dataflow", "build-graph", func() (err error) {
		w.g, err = buildGraph([]dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
			{ID: "hot", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
			{ID: "cold", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		}, []dataflow.Edge{
			{From: "src", To: "hot"}, {From: "src", To: "cold"},
			{From: "hot", To: "sink"}, {From: "cold", To: "sink"},
		})
		if err != nil {
			return err
		}
		w.plan, err = roundRobinPlan(w.g, 2)
		return err
	})
	if err != nil {
		return nil, err
	}
	w.cluster = unmeteredWorkers(2, 6)
	return w, nil
}

// job builds one run. transport and fusion are arguments so the reference
// can ask for the unary, unfused engine.
func (w *simpleWorkload) job(m repMode, transport string, noFuse bool, perSource int64, rate float64, sinks *sinkSet, gens *stamperSet) (*engine.Job, error) {
	factories := map[dataflow.OperatorID]engine.Factory{
		"src":  sourceSpec{gen: smallInt, rate: rate / float64(w.srcTasks), expect: perSource, tr: m.tr, stampers: gens}.factory,
		"sink": sinks.factory,
	}
	for _, op := range w.maps {
		factories[op] = mapFactory(m.tr, flipLowBit)
	}
	opts := engine.JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
		DisableFusion:    noFuse,
		Telemetry:        m.tel,
	}
	if rate > 0 {
		opts.SourceRate = map[dataflow.OperatorID]float64{"src": rate}
	}
	var job *engine.Job
	err := m.tr.do("engine", "NewJob", func() (err error) {
		job, err = engine.NewJob(w.g, w.plan, w.cluster, factories, opts)
		return err
	})
	return job, err
}

func (w *simpleWorkload) reference(ctx context.Context) (err error) {
	w.want, err = referenceRun(ctx, func(sinks *sinkSet) (*engine.Job, error) {
		return w.job(repMode{}, engine.TransportUnary, true, w.perSource, 0, sinks, nil)
	})
	return err
}

func (w *simpleWorkload) rep(ctx context.Context, m repMode) (*repOut, error) {
	k := newRunKit(m, w.perSource, w.pacedRate, w.srcTasks*w.sinkPerIn)
	job, err := w.job(m, w.transport, false, k.n, k.rate, k.sinks, k.gens)
	if err != nil {
		return nil, err
	}
	return engineRun(ctx, m, job, k.sinks, w.want, k.gens)
}
