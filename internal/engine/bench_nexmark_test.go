package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/statebackend"
)

// The Q3-inf shape of the throughput suite. It lives in an external test
// package because nexmark imports engine: the in-package suite
// (bench_test.go) cannot import it back, but it exposes RunQueryBench for
// this file to measure the same way.

// q3infJob deploys the paper's Q3-inf inference pipeline (src 2 -> decode 4
// -> inference 8 -> sink 2, repartitioning edges) through the real nexmark
// engine binding, with the profiled per-record CPU costs left uncharged so
// the measurement isolates the data plane rather than simulated contention.
func q3infJob(b *testing.B, transport string, perSource int64) *engine.Job {
	b.Helper()
	spec := nexmark.Q3Inf()
	bind, err := nexmark.BindEngine(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		b.Fatal(err)
	}
	pl := dataflow.NewPlan()
	for i, task := range phys.Tasks() {
		pl.Assign(task, i%2)
	}
	workers := engine.ClusterSpec{Workers: []engine.WorkerSpec{
		{ID: "w0", Slots: 16, Cores: 1e6, IOBps: 1e12, NetBps: 1e15},
		{ID: "w1", Slots: 16, Cores: 1e6, IOBps: 1e12, NetBps: 1e15},
	}}
	job, err := engine.NewJob(spec.Graph, pl, workers, bind.Factories, engine.JobOptions{
		RecordsPerSource: perSource,
		Transport:        transport,
		Stateful:         bind.Stateful,
	})
	if err != nil {
		b.Fatal(err)
	}
	return job
}

func BenchmarkEngineThroughputQ3Inf(b *testing.B) {
	const perSource = 5000
	for _, tr := range engine.TransportNames() {
		b.Run(tr, func(b *testing.B) {
			// Q3-inf's edges all repartition (2 -> 4 -> 8 -> 2), so fusion
			// has nothing to do; the fuse-on default must measure identically
			// to unfused, and the row records the shape's exchange cost.
			engine.RunQueryBench(b, false, 2*perSource, func(b *testing.B) *engine.Job {
				return q3infJob(b, tr, perSource)
			})
		})
	}
}

// BenchmarkIncrementalJoinProcess times the incremental join alone on the
// shape of the nexjoin-dist benchmark workload's join tasks: nexmark Person
// records on input 0 keyed by their ID, and Auction records on input 1 keyed
// by a random seller among them, interleaved. The join grows from empty over
// 2 × 20 000 records — about one task's share of a nexjoin-dist run — and
// then starts again from an empty namespace, outside the timer. ns/op is one
// record's list read, decode of the other side, join and append.
func BenchmarkIncrementalJoinProcess(b *testing.B) {
	const perSide = 20_000
	gp, ga := nexmark.NewGenerator(1, 1), nexmark.NewGenerator(2, 1)
	sellers := rand.New(rand.NewSource(3))
	recs := make([]engine.Record, 0, 2*perSide)
	for i := 0; i < perSide; i++ {
		p := gp.NextPerson()
		recs = append(recs, engine.Record{Key: fmt.Sprintf("p%d", p.ID), Value: *p, Time: p.Timestamp, Size: 150})
		a := ga.NextAuction()
		a.Seller = sellers.Int63n(perSide)
		recs = append(recs, engine.Record{Key: fmt.Sprintf("p%d", a.Seller), Value: *a, Time: a.Timestamp, Size: 180})
	}
	join := func(l, r engine.Record) (engine.Record, bool) {
		return engine.Record{Key: l.Key, Value: r.Value.(nexmark.Auction).ID, Time: max(l.Time, r.Time), Size: 100}, true
	}
	var op engine.Operator
	fresh := func() {
		op = engine.NewIncrementalJoin(join, 0)
		ns := statebackend.NewStore(nil, statebackend.Options{}).Namespace("join")
		if err := op.Open(&engine.TaskContext{Op: "join", Parallelism: 1, State: ns}); err != nil {
			b.Fatal(err)
		}
	}
	fresh()
	emit := func(engine.Record) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(recs)
		if j == 0 && i > 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		if err := op.Process(recs[j], j%2, emit); err != nil {
			b.Fatal(err)
		}
	}
}
