package controller

import (
	"context"
	"fmt"
	"math"
	"sort"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/telemetry"
)

// Phase is one segment of a variable workload: the base source rates scaled
// by RateFactor for Ticks control intervals.
type Phase struct {
	Ticks      int
	RateFactor float64
}

// TimelineOptions configures the reconfiguration loop.
type TimelineOptions struct {
	// InitialParallelism overrides the spec's parallelism at deployment
	// (nil keeps the spec; the paper's convergence experiment starts all
	// operators at 1).
	InitialParallelism map[dataflow.OperatorID]int
	// ActivationTicks is the minimum number of ticks between scaling
	// actions (DS2's activation time).
	ActivationTicks int
	// BackpressureTrigger re-evaluates scaling when backpressure exceeds
	// this fraction even if the rate did not change.
	BackpressureTrigger float64
	// Headroom and MaxParallelism are forwarded to DS2.
	Headroom       float64
	MaxParallelism int
	// Seed drives the randomized placement strategies; it advances on every
	// reconfiguration, modeling the fresh randomness of each redeployment.
	Seed int64
	// SimConfig is the contention model.
	SimConfig simulator.Config
	// Tracer, when set, records one controller.decision event per control
	// interval: the observed metrics snapshot and whether the DS2 ->
	// placement step reconfigured the job.
	Tracer *telemetry.Tracer
}

// Tick is one control interval's record.
type Tick struct {
	Tick          int
	TargetRate    float64
	Throughput    float64
	Backpressure  float64
	TotalTasks    int
	ScalingAction bool
	// Overprovisioned reports whether any operator's parallelism exceeds
	// the minimum needed for the current target (computed from ground-truth
	// unit costs).
	Overprovisioned bool
	Parallelism     map[dataflow.OperatorID]int
}

// TimelineResult is the full trace of a variable-workload run.
type TimelineResult struct {
	Ticks          []Tick
	ScalingActions int
}

// RunTimeline executes the DS2 + placement reconfiguration loop over the
// given workload phases, reproducing the paper's §6.4 methodology: at every
// control interval the simulator provides a metrics snapshot; when the
// snapshot shows the query missing its target (or DS2's model demands a
// different parallelism), the controller rescales with DS2 and recomputes
// the placement with the configured strategy.
func RunTimeline(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, phases []Phase, opts TimelineOptions) (*TimelineResult, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("controller: no workload phases")
	}
	if opts.ActivationTicks < 1 {
		opts.ActivationTicks = 1
	}
	g := spec.Graph.Clone()
	if opts.InitialParallelism != nil {
		var err error
		g, err = g.Rescale(opts.InitialParallelism)
		if err != nil {
			return nil, err
		}
	}
	seed := opts.Seed
	deployErrBudget := 0

	// Every redeploy warm-starts from the outgoing plan where the strategy
	// can: steady-state reconfigurations (rescaling one operator, or
	// re-placing after a rate change) mostly keep the previous assignment
	// feasible, so the search rediscovers it without backtracking.
	var prevPlan *dataflow.Plan
	deploy := func(g *dataflow.LogicalGraph, rates map[dataflow.OperatorID]float64) (*dataflow.PhysicalGraph, *dataflow.Plan, error) {
		phys, err := dataflow.Expand(g)
		if err != nil {
			return nil, nil, err
		}
		u, err := UsageOf(g, rates)
		if err != nil {
			return nil, nil, err
		}
		plan, err := placeOn(ctx, phys, c, nil, strat, u, seed, prevPlan)
		seed++
		if err != nil {
			return nil, nil, err
		}
		prevPlan = plan
		return phys, plan, nil
	}

	rates := scaleRates(spec.SourceRates, phases[0].RateFactor)
	phys, plan, err := deploy(g, rates)
	if err != nil {
		return nil, err
	}

	res := &TimelineResult{}
	tick := 0
	lastAction := -opts.ActivationTicks
	for _, ph := range phases {
		rates = scaleRates(spec.SourceRates, ph.RateFactor)
		for i := 0; i < ph.Ticks; i++ {
			sim, err := simulator.Evaluate([]simulator.QueryDeployment{{
				Name: spec.Name, Phys: phys, Plan: plan, SourceRates: rates,
			}}, c, opts.SimConfig)
			if err != nil {
				return nil, err
			}
			qm := sim.Queries[spec.Name]
			rec := Tick{
				Tick:            tick,
				TargetRate:      qm.Target,
				Throughput:      qm.Throughput,
				Backpressure:    qm.Backpressure,
				TotalTasks:      g.TotalTasks(),
				Overprovisioned: overprovisioned(spec.Graph, g, rates),
				Parallelism:     parallelismOf(g),
			}

			acted := false
			if tick-lastAction >= opts.ActivationTicks {
				dec, derr := ObserveSim(sim, spec.Name).Scale(g, rates, ds2.Options{
					MaxParallelism: opts.MaxParallelism,
					Headroom:       opts.Headroom,
				})
				if derr == nil && dec.Changed {
					ng, rerr := g.Rescale(dec.Parallelism)
					if rerr == nil {
						ng = clampToCluster(ng, c)
						nphys, nplan, derr2 := deploy(ng, rates)
						if derr2 == nil {
							g, phys, plan = ng, nphys, nplan
							acted = true
							lastAction = tick
							res.ScalingActions++
						} else {
							deployErrBudget++
							if deployErrBudget > 10 {
								return nil, fmt.Errorf("controller: repeated redeploy failures: %w", derr2)
							}
						}
					}
				}
			}
			rec.ScalingAction = acted
			opts.Tracer.Emit(telemetry.Event{
				Kind:  telemetry.EventDecision,
				Query: spec.Name,
				Attrs: map[string]any{
					"tick":         tick,
					"target_rate":  qm.Target,
					"throughput":   qm.Throughput,
					"backpressure": qm.Backpressure,
					"total_tasks":  g.TotalTasks(),
					"rescaled":     acted,
				},
			})
			res.Ticks = append(res.Ticks, rec)
			tick++
		}
	}
	return res, nil
}

// scaleRates multiplies every source rate by f.
func scaleRates(base map[dataflow.OperatorID]float64, f float64) map[dataflow.OperatorID]float64 {
	out := make(map[dataflow.OperatorID]float64, len(base))
	for k, v := range base {
		out[k] = v * f
	}
	return out
}

func parallelismOf(g *dataflow.LogicalGraph) map[dataflow.OperatorID]int {
	out := make(map[dataflow.OperatorID]int, g.NumOperators())
	for _, op := range g.Operators() {
		out[op.ID] = op.Parallelism
	}
	return out
}

// IdealParallelism computes, from ground-truth unit costs, the minimum
// parallelism per operator that can sustain the given source rates when
// every task runs uncontended (one full CPU share per slot). It is the
// yardstick for the paper's over-provisioning check (Table 4).
func IdealParallelism(truth *dataflow.LogicalGraph, rates map[dataflow.OperatorID]float64) map[dataflow.OperatorID]int {
	out := make(map[dataflow.OperatorID]int, truth.NumOperators())
	rp, err := dataflow.PropagateRates(truth, rates)
	if err != nil {
		for _, op := range truth.Operators() {
			out[op.ID] = 1
		}
		return out
	}
	for _, op := range truth.Operators() {
		p := 1
		if op.Cost.CPU > 0 {
			p = int(math.Ceil(rp.In[op.ID] * op.Cost.CPU))
		}
		if p < 1 {
			p = 1
		}
		out[op.ID] = p
	}
	return out
}

// overprovisioned reports whether the deployed graph g uses more parallelism
// than the ideal for the current rates on any operator. One extra task per
// operator is tolerated: DS2's true-rate estimates sit at ceil boundaries,
// so a single-task overshoot is measurement rounding, not over-provisioning.
func overprovisioned(truth, g *dataflow.LogicalGraph, rates map[dataflow.OperatorID]float64) bool {
	const slack = 1
	ideal := IdealParallelism(truth, rates)
	for _, op := range g.Operators() {
		if op.Parallelism > ideal[op.ID]+slack {
			return true
		}
	}
	return false
}

// clampToCluster shrinks per-operator parallelism until the graph fits the
// cluster's total slots, reducing the largest operators first.
func clampToCluster(g *dataflow.LogicalGraph, c *cluster.Cluster) *dataflow.LogicalGraph {
	total := g.TotalTasks()
	slots := c.TotalSlots()
	if total <= slots {
		return g
	}
	ops := g.Operators()
	for total > slots {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Parallelism > ops[j].Parallelism })
		if ops[0].Parallelism <= 1 {
			break
		}
		// SetParallelism mutates the clone's operator in place.
		_ = g.SetParallelism(ops[0].ID, ops[0].Parallelism-1)
		total--
	}
	return g
}
