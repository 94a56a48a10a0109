package main

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// placedWorkload is the paper's claim end to end: Q3-inf is expanded, rated,
// costed, placed by CAPS and then run on a metered 4×4 cluster with the
// profiled per-record CPU charged. Throughput is set by the plan and the
// shared meters, not by how fast the data plane moves a record.
type placedWorkload struct {
	spec      nexmark.QuerySpec
	phys      *dataflow.PhysicalGraph
	cluster   *cluster.Cluster
	usage     *costmodel.Usage
	tuned     *caps.AutoTuneResult
	search    *caps.Result
	plan      *dataflow.Plan
	defPlan   *dataflow.Plan
	binding   *nexmark.EngineBinding
	seed      int64
	perSource int64
	pacedRate float64
	want      want
	layer     map[string]float64
}

// caplive's default cluster: 4 workers × 4 slots, 2 cores, 50 MB/s of state
// I/O and 500 MB/s of network per worker.
const (
	placedWorkers = 4
	placedSlots   = 4
)

// timeIt runs fn in a span and returns its wall time in the unit asked for
// (perSec = 1e3 for ms, 1e6 for µs).
func timeIt(tr *tracer, layer, name string, perSec float64, fn func() error) (float64, error) {
	t0 := time.Now()
	err := tr.do(layer, name, fn)
	return time.Since(t0).Seconds() * perSec, err
}

func setupPlaced(ctx context.Context, p params, seed int64, tr *tracer) (instance, error) {
	w := &placedWorkload{spec: nexmark.Q3Inf(), seed: seed, perSource: p.placedPerSource, pacedRate: p.placedPacedRate, layer: map[string]float64{}}
	var err error
	if w.cluster, err = cluster.Homogeneous(placedWorkers, placedSlots, 2, 50e6, 500e6); err != nil {
		return nil, err
	}
	var rates *dataflow.RatePlan
	steps := []struct {
		layer, name, metric string
		perSec              float64
		fn                  func() error
	}{
		{"dataflow", "Expand", "dataflow.expand_us", 1e6, func() (err error) { w.phys, err = dataflow.Expand(w.spec.Graph); return }},
		{"dataflow", "PropagateRates", "dataflow.propagate_rates_us", 1e6, func() (err error) {
			rates, err = dataflow.PropagateRates(w.spec.Graph, w.spec.SourceRates)
			return
		}},
		{"costmodel", "FromRates", "", 1e6, func() error { w.usage = costmodel.FromRates(w.spec.Graph, rates); return nil }},
		{"caps", "AutoTune", "caps.autotune_ms", 1e3, func() (err error) {
			w.tuned, err = caps.AutoTune(ctx, w.phys, w.cluster, w.usage, caps.DefaultAutoTuneOptions())
			return
		}},
		{"caps", "Search", "caps.first_feasible_ms", 1e3, func() (err error) {
			w.search, err = caps.Search(ctx, w.phys, w.cluster, w.usage, caps.Options{Alpha: w.tuned.Alpha, Mode: caps.FirstFeasible, Reorder: true})
			return
		}},
		{"nexmark", "BindEngine", "", 1e3, func() (err error) { w.binding, err = nexmark.BindEngine(w.spec, seed); return }},
	}
	for _, s := range steps {
		v, err := timeIt(tr, s.layer, s.name, s.perSec, s.fn)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", s.layer, s.name, err)
		}
		if s.metric != "" {
			w.layer[s.metric] = v
		}
	}
	w.layer["decision_ms"] = w.layer["caps.autotune_ms"] + w.layer["caps.first_feasible_ms"]
	w.layer["caps.autotune_probes"] = float64(w.tuned.Probes)
	searchStats(w.layer, w.search)
	w.layer["placement.plan_cost_cpu"] = w.search.Cost.CPU
	w.layer["placement.plan_cost_io"] = w.search.Cost.IO
	w.layer["placement.plan_cost_net"] = w.search.Cost.Net
	if !w.search.Feasible {
		return nil, fmt.Errorf("caps found no feasible plan for Q3-inf")
	}
	w.plan = w.search.Plan
	if err := w.plan.Validate(w.phys, placedWorkers, placedSlots); err != nil {
		return nil, fmt.Errorf("caps plan is invalid: %w", err)
	}
	return w, nil
}

// searchStats copies a search's effort counters into layer metrics.
func searchStats(layer map[string]float64, res *caps.Result) {
	layer["caps.search_nodes"] = float64(res.Stats.Nodes)
	layer["caps.cost_evals"] = float64(res.Stats.CostEvals)
	layer["caps.memo_prunes"] = float64(res.Stats.MemoPrunes)
	layer["caps.budget_prunes"] = float64(res.Stats.BudgetPrunes)
}

func (w *placedWorkload) job(m repMode, transport string, noFuse bool, plan *dataflow.Plan, n int64, rate float64, sinks *sinkSet, gens *stamperSet) (*engine.Job, error) {
	factories := make(map[dataflow.OperatorID]engine.Factory, len(w.binding.Factories))
	for op, f := range w.binding.Factories {
		factories[op] = f
	}
	// The source and sink are the bench's own, so records can be stamped
	// and the output fingerprinted; keys, values and sizes are Q3-inf's.
	size, seed := int(w.spec.Graph.Operator("src").Cost.Net), w.seed
	factories["src"] = sourceSpec{gen: func(task, i int64) engine.Record {
		return engine.Record{Key: fmt.Sprintf("frame-%d-%d", task, i), Value: seed + task<<32 + i, Time: i, Size: size}
	}, rate: rate / 2, expect: n, tr: m.tr, stampers: gens}.factory
	factories["sink"] = sinks.factory
	opts := engine.JobOptions{
		RecordsPerSource: n,
		Transport:        transport,
		DisableFusion:    noFuse,
		PerRecordCPU:     w.binding.PerRecordCPU,
		Stateful:         w.binding.Stateful,
		Telemetry:        m.tel,
	}
	if rate > 0 {
		opts.SourceRate = map[dataflow.OperatorID]float64{"src": rate}
	}
	var job *engine.Job
	err := m.tr.do("engine", "NewJob", func() (err error) {
		job, err = engine.NewJob(w.spec.Graph, plan, controller.EngineCluster(w.cluster), factories, opts)
		return err
	})
	return job, err
}

func (w *placedWorkload) reference(ctx context.Context) (err error) {
	// The reference runs unmetered: placement and meters change when a
	// record arrives, never what arrives.
	ref := *w
	ref.binding = &nexmark.EngineBinding{Factories: w.binding.Factories, Stateful: w.binding.Stateful}
	w.want, err = referenceRun(ctx, func(sinks *sinkSet) (*engine.Job, error) {
		return ref.job(repMode{}, engine.TransportUnary, true, w.plan, w.perSource, 0, sinks, nil)
	})
	return err
}

func (w *placedWorkload) rep(ctx context.Context, m repMode) (*repOut, error) {
	plan := w.plan
	if m.defaultPlan {
		if w.defPlan == nil {
			var err error
			w.defPlan, err = placement.FlinkDefault{}.Place(ctx, w.phys, w.cluster, w.usage, w.seed)
			if err != nil {
				return nil, err
			}
		}
		plan = w.defPlan
	}
	k := newRunKit(m, w.perSource, w.pacedRate, 2)
	job, err := w.job(m, engine.TransportBatched, false, plan, k.n, k.rate, k.sinks, k.gens)
	if err != nil {
		return nil, err
	}
	out, err := engineRun(ctx, m, job, k.sinks, w.want, k.gens)
	if err != nil {
		return nil, err
	}
	for k, v := range w.layer {
		out.layer[k] = v
	}
	return out, nil
}

// simulate evaluates the CAPS plan on the contention simulator and returns
// the predicted aggregate source rate.
func (w *placedWorkload) simulate(tr *tracer) (predicted, evalUS float64, err error) {
	var res *simulator.Result
	evalUS, err = timeIt(tr, "simulator", "Evaluate", 1e6, func() (err error) {
		res, err = simulator.Evaluate([]simulator.QueryDeployment{{
			Name: w.spec.Name, Phys: w.phys, Plan: w.plan, SourceRates: w.spec.SourceRates,
		}}, w.cluster, simulator.DefaultConfig())
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Queries[w.spec.Name].Throughput, evalUS, nil
}
