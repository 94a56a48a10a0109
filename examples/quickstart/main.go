// Quickstart: build a small streaming query, compute a contention-aware
// placement with CAPS, and execute it on the live mini engine.
//
// The query counts Nexmark bids per auction over tumbling windows:
//
//	source -> filter(bids) -> window(count per auction) -> sink
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"sync/atomic"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
)

func main() {
	// 1. Describe the logical dataflow. Unit costs (CPU-seconds, state
	// bytes, output bytes per record) would normally come from the CAPSys
	// profiling phase; here we declare them directly.
	g := dataflow.NewLogicalGraph()
	ops := []dataflow.Operator{
		{ID: "source", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 2e-6, Net: 60}},
		{ID: "bids", Kind: dataflow.KindFilter, Parallelism: 2, Selectivity: 0.92,
			Cost: dataflow.UnitCost{CPU: 2e-6, Net: 60}},
		{ID: "count", Kind: dataflow.KindWindow, Parallelism: 4, Selectivity: 0.01,
			Cost: dataflow.UnitCost{CPU: 4e-4, IO: 120, Net: 20}},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1, Selectivity: 0,
			Cost: dataflow.UnitCost{CPU: 1e-6}},
	}
	for _, op := range ops {
		must(g.AddOperator(op))
	}
	must(g.AddEdge(dataflow.Edge{From: "source", To: "bids"}))
	must(g.AddEdge(dataflow.Edge{From: "bids", To: "count"}))
	must(g.AddEdge(dataflow.Edge{From: "count", To: "sink"}))
	phys, err := dataflow.Expand(g)
	must(err)

	// 2. Describe the cluster: 3 workers, 3 slots each, one CPU core per
	// worker so the window tasks genuinely contend when co-located.
	c, err := cluster.Homogeneous(3, 3, 1.0, 50e6, 100e6)
	must(err)

	// 3. Compute a placement with CAPS: auto-tune the pruning thresholds,
	// then search for the Pareto-optimal plan.
	rates, err := dataflow.PropagateRates(g, map[dataflow.OperatorID]float64{"source": 2000})
	must(err)
	usage := costmodel.FromRates(g, rates)
	tuned, err := caps.AutoTune(context.Background(), phys, c, usage, caps.DefaultAutoTuneOptions())
	must(err)
	fmt.Printf("auto-tuned thresholds: %v (after %d probes, %d searches)\n", tuned.Alpha, tuned.Probes, tuned.Searches)

	res, err := caps.Search(context.Background(), phys, c, usage, caps.Options{
		Alpha: tuned.Alpha, Mode: caps.Exhaustive, Reorder: true,
	})
	must(err)
	if !res.Feasible {
		log.Fatal("no feasible plan")
	}
	fmt.Printf("plan cost %v after %d nodes / %d plans in %v\nplan:\n%s\n",
		res.Cost, res.Stats.Nodes, res.Stats.Plans, res.Stats.Elapsed, res.Plan)

	// 4. Execute the plan on the live engine with real Nexmark events.
	gen := nexmark.NewGenerator(42, 1)
	events := make([]nexmark.Event, 40_000)
	for i := range events {
		events[i] = gen.Next()
	}
	var windows atomic.Int64
	factories := map[dataflow.OperatorID]engine.Factory{
		"source": func(*engine.TaskContext) (any, error) {
			return engine.NewSource(func(task, i int64) (engine.Record, bool) {
				idx := task*int64(len(events)/2) + i
				if idx >= int64(len(events)) {
					return engine.Record{}, false
				}
				e := events[idx]
				key := ""
				if e.Kind == nexmark.BidEvent {
					key = fmt.Sprintf("a%d", e.Bid.Auction)
				}
				return engine.Record{Key: key, Value: e, Time: e.Timestamp, Size: 60}, true
			}), nil
		},
		"bids": func(*engine.TaskContext) (any, error) {
			return engine.NewFilter(func(r engine.Record) bool {
				return r.Value.(nexmark.Event).Kind == nexmark.BidEvent
			}), nil
		},
		"count": func(*engine.TaskContext) (any, error) {
			return engine.NewSlidingWindow(1000, 1000, countAgg, func(key string, start, end int64, acc []byte) engine.Record {
				var n int
				_ = json.Unmarshal(acc, &n)
				return engine.Record{Key: key, Value: n, Time: end, Size: 20}
			}), nil
		},
		"sink": func(*engine.TaskContext) (any, error) {
			return engine.NewSink(func(engine.Record) { windows.Add(1) }), nil
		},
	}
	spec := engine.ClusterSpec{}
	for i := 0; i < c.NumWorkers(); i++ {
		w := c.Worker(i)
		spec.Workers = append(spec.Workers, engine.WorkerSpec{
			ID: w.ID, Slots: w.Slots, Cores: w.CPU, IOBps: w.IOBandwidth, NetBps: w.NetBandwidth,
		})
	}
	job, err := engine.NewJob(g, res.Plan, spec, factories, engine.JobOptions{
		RecordsPerSource: int64(len(events) / 2),
		PerRecordCPU: map[dataflow.OperatorID]float64{
			"count": 4e-4, // emulate the profiled per-record compute cost
		},
		Stateful: map[dataflow.OperatorID]bool{"count": true},
	})
	must(err)
	run, err := job.Run(context.Background())
	must(err)

	fmt.Printf("engine run: %d records in %v (%.0f rec/s), %d windows emitted\n",
		run.SourceRecords, run.Elapsed.Round(1e6),
		float64(run.SourceRecords)/run.Elapsed.Seconds(), windows.Load())
	for _, t := range phys.TasksOf("count") {
		st := run.Tasks[t]
		fmt.Printf("  %v on worker %d: in=%d useful=%.2f backpressure=%v\n",
			t, st.Worker, st.RecordsIn, st.UsefulFraction, st.BackpressureT.Round(1e6))
	}
}

func countAgg(acc []byte, _ engine.Record) []byte {
	var n int
	if acc != nil {
		_ = json.Unmarshal(acc, &n)
	}
	n++
	out, _ := json.Marshal(n)
	return out
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
