package engine_test

import (
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
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
