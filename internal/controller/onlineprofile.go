package controller

import (
	"fmt"

	"capsys/internal/dataflow"
)

// OnlineProfiler maintains exponentially weighted moving averages of each
// operator's per-record unit resource costs from live task telemetry,
// implementing the paper's proposed online-profiling extension (§5.1: "we
// could use our current infrastructure to have the Metrics Collector
// periodically feed metrics to DS2 and CAPS, to support online profiling").
//
// It is the controller's one unit-cost estimator: an offline profile (one
// observation of Profile's dedicated layout) and periodic snapshots of a
// running job both reach it through Observe, from either executor. An
// estimate is the operator's measured resource use divided by its observed
// rate. On the simulator the CPU estimate inflates under contention exactly
// as a timed measurement would; placing with online-profiled costs remains
// sound because the inflation disappears once CAPS spreads the hot tasks. The
// live engine's CPU draw is the per-record cost it charges, so there the
// estimate does not inflate.
type OnlineProfiler struct {
	// Alpha is the EWMA smoothing factor in (0,1]; higher weights the
	// latest snapshot more.
	alpha float64
	costs map[dataflow.OperatorID]dataflow.UnitCost
}

// NewOnlineProfiler creates a profiler with the given EWMA factor.
func NewOnlineProfiler(alpha float64) (*OnlineProfiler, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("controller: EWMA alpha %v outside (0,1]", alpha)
	}
	return &OnlineProfiler{alpha: alpha, costs: make(map[dataflow.OperatorID]dataflow.UnitCost)}, nil
}

// Observe folds one observation into the estimates: per operator, the
// tasks' summed resource use divided by their summed rate. A task's rate is
// the records it consumed, or for a generator source (which consumes
// nothing on the live engine) the records it emitted. Tasks with (near) zero
// rate are skipped: a starved task carries no per-record cost signal.
func (p *OnlineProfiler) Observe(obs Observation) {
	type agg struct{ rate, cpu, io, net float64 }
	perOp := make(map[dataflow.OperatorID]*agg)
	for id, o := range obs {
		rate := o.In
		if rate < 1e-9 {
			rate = o.Out
		}
		if rate < 1e-9 {
			continue
		}
		a := perOp[id.Op]
		if a == nil {
			a = &agg{}
			perOp[id.Op] = a
		}
		a.rate += rate
		a.cpu += o.CPU
		a.io += o.IO
		a.net += o.Net
	}
	for op, a := range perOp {
		sample := dataflow.UnitCost{CPU: a.cpu / a.rate, IO: a.io / a.rate, Net: a.net / a.rate}
		prev, ok := p.costs[op]
		if !ok {
			p.costs[op] = sample
			continue
		}
		p.costs[op] = dataflow.UnitCost{
			CPU: p.alpha*sample.CPU + (1-p.alpha)*prev.CPU,
			IO:  p.alpha*sample.IO + (1-p.alpha)*prev.IO,
			Net: p.alpha*sample.Net + (1-p.alpha)*prev.Net,
		}
	}
}

// Cost returns the current estimate for op and whether one exists.
func (p *OnlineProfiler) Cost(op dataflow.OperatorID) (dataflow.UnitCost, bool) {
	c, ok := p.costs[op]
	return c, ok
}

// Apply returns a clone of g with the profiled estimates installed where
// available; operators never observed keep their existing costs.
func (p *OnlineProfiler) Apply(g *dataflow.LogicalGraph) *dataflow.LogicalGraph {
	c := g.Clone()
	for _, op := range c.Operators() {
		if est, ok := p.costs[op.ID]; ok {
			op.Cost = est
		}
	}
	return c
}
