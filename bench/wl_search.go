package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// searchWorkload is placement search alone (paper Fig. 10): Q2-join scaled
// to 256 tasks on 32 workers × 8 slots, no engine. One repetition makes
// searchAutoTunes × (AutoTune + first-feasible search under the tuned α)
// and searchTight × first-feasible search under the tight Fig. 10a vector
// a1. Node and probe counts are deterministic: every decision must repeat
// the reference's counts exactly and return a plan that respects the slots.
type searchWorkload struct {
	p       params
	phys    *dataflow.PhysicalGraph
	cluster *cluster.Cluster
	usage   *costmodel.Usage
	// reference effort counters: tuned first-feasible, tight first-feasible.
	refProbes               int
	refTunedNodes, refTight int64
	haveRef                 bool
}

// tightAlpha is the paper's Figure 10a vector a1.
var tightAlpha = costmodel.Vector{CPU: 0.08, IO: 0.15, Net: 0.6}

// scaleQuery scales a query to totalTasks tasks the way the Fig. 10
// experiments do: every operator's parallelism (and the source rates) grow
// by the same factor, rounding drift absorbed by the widest operator.
func scaleQuery(spec nexmark.QuerySpec, totalTasks int) (nexmark.QuerySpec, error) {
	factor := float64(totalTasks) / float64(spec.Graph.TotalTasks())
	out := spec.Scaled(factor)
	out.Name = spec.Name
	ops := out.Graph.Operators()
	par := make(map[dataflow.OperatorID]int, len(ops))
	assigned, widest := 0, ops[0]
	for _, op := range ops {
		n := int(math.Round(float64(op.Parallelism) * factor))
		if n < 1 {
			n = 1
		}
		par[op.ID] = n
		assigned += n
		if op.Parallelism > widest.Parallelism {
			widest = op
		}
	}
	par[widest.ID] += totalTasks - assigned
	if par[widest.ID] < 1 {
		return nexmark.QuerySpec{}, fmt.Errorf("cannot scale %s to %d tasks", spec.Name, totalTasks)
	}
	g, err := out.Graph.Rescale(par)
	if err != nil {
		return nexmark.QuerySpec{}, err
	}
	out.Graph = g
	return out, nil
}

func setupSearch(_ context.Context, p params, _ int64, tr *tracer) (instance, error) {
	w := &searchWorkload{p: p}
	spec, err := scaleQuery(nexmark.Q2Join(), p.searchTasks)
	if err != nil {
		return nil, err
	}
	slots := float64(p.searchSlots)
	if w.cluster, err = cluster.Homogeneous(p.searchWorkers, p.searchSlots, 4.0*slots/4, 200e6*slots/4, 1.25e9); err != nil {
		return nil, err
	}
	if err = tr.do("dataflow", "Expand", func() (err error) { w.phys, err = dataflow.Expand(spec.Graph); return }); err != nil {
		return nil, err
	}
	var rates *dataflow.RatePlan
	if err = tr.do("dataflow", "PropagateRates", func() (err error) {
		rates, err = dataflow.PropagateRates(spec.Graph, spec.SourceRates)
		return
	}); err != nil {
		return nil, err
	}
	_ = tr.do("costmodel", "FromRates", func() error { w.usage = costmodel.FromRates(spec.Graph, rates); return nil })
	return w, nil
}

// decision is one placement decision with its wall time.
type decision struct {
	tuned *caps.AutoTuneResult // nil for a tight-α decision
	res   *caps.Result
	wall  time.Duration
}

func (w *searchWorkload) tunedDecision(ctx context.Context, tr *tracer) (decision, error) {
	var d decision
	t0 := time.Now()
	err := tr.do("caps", "AutoTune", func() (err error) {
		opts := caps.DefaultAutoTuneOptions()
		opts.Reorder = true
		d.tuned, err = caps.AutoTune(ctx, w.phys, w.cluster, w.usage, opts)
		return err
	})
	if err != nil {
		return d, err
	}
	err = tr.do("caps", "Search", func() (err error) {
		d.res, err = caps.Search(ctx, w.phys, w.cluster, w.usage, caps.Options{Alpha: d.tuned.Alpha, Mode: caps.FirstFeasible, Reorder: true})
		return err
	})
	d.wall = time.Since(t0)
	return d, err
}

func (w *searchWorkload) tightDecision(ctx context.Context, tr *tracer) (decision, error) {
	var d decision
	t0 := time.Now()
	err := tr.do("caps", "Search", func() (err error) {
		d.res, err = caps.Search(ctx, w.phys, w.cluster, w.usage, caps.Options{Alpha: tightAlpha, Mode: caps.FirstFeasible, Reorder: true})
		return err
	})
	d.wall = time.Since(t0)
	return d, err
}

func (w *searchWorkload) reference(ctx context.Context) error {
	a, err := w.tunedDecision(ctx, nil)
	if err != nil {
		return err
	}
	b, err := w.tightDecision(ctx, nil)
	if err != nil {
		return err
	}
	w.refProbes, w.refTunedNodes, w.refTight, w.haveRef = a.tuned.Probes, a.res.Stats.Nodes, b.res.Stats.Nodes, true
	return nil
}

// bad reports whether a decision fails the check: infeasible, a plan that
// breaks the slot limits, or effort counters that differ from the reference.
func (w *searchWorkload) bad(d decision) bool {
	if !d.res.Feasible || d.res.Plan == nil || d.res.Plan.Validate(w.phys, w.p.searchWorkers, w.p.searchSlots) != nil {
		return true
	}
	if !w.haveRef {
		return false
	}
	if d.tuned != nil {
		return d.tuned.Probes != w.refProbes || d.res.Stats.Nodes != w.refTunedNodes
	}
	return d.res.Stats.Nodes != w.refTight
}

func (w *searchWorkload) rep(ctx context.Context, m repMode) (*repOut, error) {
	tunes, tight := w.p.searchAutoTunes, w.p.searchTight
	if m.warm {
		tunes, tight = 1, 1
	}
	out := &repOut{layer: map[string]float64{}}
	var tuneMS, ffMS, tightMS []float64
	var tightNodes, tightNS float64
	var last decision
	t0 := time.Now()
	for i := 0; i < tunes+tight; i++ {
		var d decision
		var err error
		if i < tunes {
			d, err = w.tunedDecision(ctx, m.tr)
		} else {
			d, err = w.tightDecision(ctx, m.tr)
		}
		out.ops++
		if err != nil || w.bad(d) {
			out.failed++
			if err != nil {
				continue
			}
		}
		out.lat = append(out.lat, int64(d.wall))
		if d.tuned != nil {
			tuneMS = append(tuneMS, d.tuned.Elapsed.Seconds()*1e3)
			ffMS = append(ffMS, d.res.Stats.Elapsed.Seconds()*1e3)
			out.layer["caps.autotune_probes"] = float64(d.tuned.Probes)
		} else {
			tightMS = append(tightMS, d.wall.Seconds()*1e3)
			tightNodes += float64(d.res.Stats.Nodes)
			tightNS += float64(d.res.Stats.Elapsed)
			last = d
		}
	}
	out.elapsed = time.Since(t0)
	out.layer["caps.autotune_ms"] = median(tuneMS)
	out.layer["caps.first_feasible_ms"] = median(ffMS)
	out.layer["caps.tight_alpha_ms"] = median(tightMS)
	out.layer["decision_ms"] = median(tuneMS) + median(ffMS)
	if last.res != nil {
		searchStats(out.layer, last.res)
		out.layer["placement.plan_cost_cpu"] = last.res.Cost.CPU
		out.layer["placement.plan_cost_io"] = last.res.Cost.IO
		out.layer["placement.plan_cost_net"] = last.res.Cost.Net
	}
	if tightNodes > 0 {
		out.layer["caps.ns_per_node"] = tightNS / tightNodes
	}
	return out, nil
}
