package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
)

// nexjoinWorkload joins nexmark persons with the auctions they sell, on a
// coordinator plus two in-process workers: struct values, hash-keyed
// routing, barriers and snapshots all cross loopback TCP, and the control
// plane and snapshot store of controller/distrib.go supervise the run.
type nexjoinWorkload struct {
	g         *dataflow.LogicalGraph
	phys      *dataflow.PhysicalGraph
	plan      *dataflow.Plan
	assign    []controller.TaskAssignment
	cluster   engine.ClusterSpec
	perSource int64
	ckptEvery int64
	pacedRate float64
	persons   []engine.Record // pre-generated payloads, one slice per source
	auctions  []engine.Record
	want      want
}

const nexjoinWorkers = 2

func setupNexjoin(_ context.Context, p params, seed int64, tr *tracer) (instance, error) {
	w := &nexjoinWorkload{perSource: p.nexjoinPerSource, ckptEvery: p.nexjoinCheckpointEvery, pacedRate: p.nexjoinPacedRate}
	err := tr.do("dataflow", "build-graph", func() (err error) {
		w.g, err = buildGraph([]dataflow.Operator{
			{ID: "person", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "auction", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "map-person", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
			{ID: "map-auction", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
			{ID: "join", Kind: dataflow.KindJoin, Parallelism: 4, Selectivity: 0.5},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		}, []dataflow.Edge{
			{From: "person", To: "map-person"}, {From: "auction", To: "map-auction"},
			{From: "map-person", To: "join"}, {From: "map-auction", To: "join"},
			{From: "join", To: "sink"},
		})
		if err != nil {
			return err
		}
		if w.phys, err = dataflow.Expand(w.g); err != nil {
			return err
		}
		w.plan, err = roundRobinPlan(w.g, nexjoinWorkers)
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.assign, err = controller.AssignmentsOf(w.phys, w.plan); err != nil {
		return nil, err
	}
	w.cluster = unmeteredWorkers(nexjoinWorkers, 8)

	// Payloads are generated here, not in the measured run: building names
	// and e-mail strings is the generator's cost, not the engine's.
	_ = tr.do("nexmark", "generate-payloads", func() error {
		gp, ga := nexmark.NewGenerator(seed*7919+1, 1), nexmark.NewGenerator(seed*7919+2, 1)
		sellers := rand.New(rand.NewSource(seed*7919 + 3))
		w.persons = make([]engine.Record, w.perSource)
		w.auctions = make([]engine.Record, w.perSource)
		for i := range w.persons {
			p := gp.NextPerson()
			w.persons[i] = engine.Record{Key: fmt.Sprintf("p%d", p.ID), Value: *p, Time: p.Timestamp, Size: 150}
			a := ga.NextAuction()
			a.Seller = sellers.Int63n(w.perSource)
			w.auctions[i] = engine.Record{Key: fmt.Sprintf("p%d", a.Seller), Value: *a, Time: a.Timestamp, Size: 180}
		}
		return nil
	})
	return w, nil
}

// auctionID reads the auction's ID whether the value arrived as the struct
// or came back from join state as the generic map of a JSON round trip.
func auctionID(v any) int64 {
	switch a := v.(type) {
	case nexmark.Auction:
		return a.ID
	case map[string]any:
		if f, ok := a["ID"].(float64); ok {
			return int64(f)
		}
	}
	return -1
}

func joinPersonAuction(l, r engine.Record) (engine.Record, bool) {
	t := l.Time
	if r.Time > t {
		t = r.Time // the later stamp: the result could not exist before it
	}
	return engine.Record{Key: l.Key, Value: auctionID(r.Value), Time: t, Size: 100}, true
}

// factories are the operators of one run; n is the record count per source.
func (w *nexjoinWorkload) factories(m repMode, n int64, rate float64, sinks *sinkSet, gens *stamperSet) map[dataflow.OperatorID]engine.Factory {
	src := func(recs []engine.Record) engine.Factory {
		return sourceSpec{gen: func(_, i int64) engine.Record { return recs[i] },
			rate: rate / 2, expect: n, tr: m.tr, stampers: gens}.factory
	}
	identity := func(r engine.Record) engine.Record { return r }
	return map[dataflow.OperatorID]engine.Factory{
		"person":      src(w.persons),
		"auction":     src(w.auctions),
		"map-person":  mapFactory(m.tr, identity),
		"map-auction": mapFactory(m.tr, identity),
		"join": func(*engine.TaskContext) (any, error) {
			return engine.NewIncrementalJoin(joinPersonAuction, 0), nil
		},
		"sink": sinks.factory,
	}
}

func (w *nexjoinWorkload) reference(ctx context.Context) (err error) {
	w.want, err = referenceRun(ctx, func(sinks *sinkSet) (*engine.Job, error) {
		return engine.NewJob(w.g, w.plan, w.cluster, w.factories(repMode{}, w.perSource, 0, sinks, nil), engine.JobOptions{
			RecordsPerSource: w.perSource,
			Transport:        engine.TransportUnary,
			DisableFusion:    true,
			Stateful:         map[dataflow.OperatorID]bool{"join": true},
		})
	})
	return err
}

func (w *nexjoinWorkload) rep(ctx context.Context, m repMode) (*repOut, error) {
	k := newRunKit(m, w.perSource, w.pacedRate, 1)
	n, rate, sinks, gens := k.n, k.rate, k.sinks, k.gens
	factories := w.factories(m, n, rate, sinks, gens)
	build := func(spec controller.DeploySpec) (*engine.Job, error) {
		opts := engine.JobOptions{
			RecordsPerSource: spec.RecordsPerSource,
			SnapshotInterval: spec.SnapshotInterval,
			Transport:        engine.TransportNetwork,
			Stateful:         map[dataflow.OperatorID]bool{"join": true},
			KeyGroups:        spec.KeyGroups,
			Telemetry:        m.tel,
		}
		if rate > 0 {
			opts.SourceRate = map[dataflow.OperatorID]float64{"person": rate / 2, "auction": rate / 2}
		}
		return engine.NewJob(w.g, spec.Plan(), engine.ClusterSpec{Workers: spec.Workers}, factories, opts)
	}
	deploy := controller.DeploySpec{
		Query:            "bench-nexjoin",
		RecordsPerSource: n,
		SnapshotInterval: w.ckptEvery,
		Workers:          w.cluster.Workers,
		Assign:           w.assign,
	}
	if m.warm {
		deploy.SnapshotInterval /= 10
	}

	var co *controller.Coordinator
	err := m.tr.do("controller", "NewCoordinator", func() (err error) {
		co, err = controller.NewCoordinator("127.0.0.1:0", deploy, nexjoinWorkers, controller.CoordinatorOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	wctx, stopWorkers := context.WithCancel(ctx)
	var wg sync.WaitGroup
	workerErr := make([]error, nexjoinWorkers)
	for i := 0; i < nexjoinWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErr[i] = controller.JoinCluster(wctx, co.Addr(), build, controller.JoinOptions{HeartbeatEvery: 100 * time.Millisecond})
		}(i)
	}
	// Whatever happens below, the workers leave their join loops and are
	// waited for before the repetition returns.
	defer func() {
		co.Shutdown()
		stopWorkers()
		wg.Wait()
	}()

	t0 := time.Now()
	if err := m.tr.do("controller", "WaitJoined", func() error { return co.WaitJoined(ctx) }); err != nil {
		return nil, err
	}
	joinMS := time.Since(t0).Seconds() * 1e3

	var res *engine.JobResult
	t0 = time.Now()
	err = m.tr.do("controller", "Coordinator.Run", func() (err error) {
		res, err = co.Run(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	runWall := time.Since(t0)
	out := finishRun(m, res, sinks, w.want, gens)
	out.layer["controller.join_ms"] = joinMS
	out.layer["controller.run_overhead_ms"] = (runWall - res.Elapsed).Seconds() * 1e3
	return out, nil
}
