package controller

import (
	"sort"

	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
)

// PlansFromDecision turns a DS2 scaling decision into the engine's rescale
// schedule: one plan per operator whose recommended parallelism differs from
// the graph's current, all aligned to the same checkpoint epoch. Sources
// are skipped — their count fixes the input partitioning, so a live rescale
// cannot apply that part of the decision. Operators are ordered
// deterministically so the same decision always yields the same schedule.
func PlansFromDecision(d *ds2.Decision, g *dataflow.LogicalGraph, atEpoch int64) []engine.RescalePlan {
	if d == nil || !d.Changed {
		return nil
	}
	ops := make([]dataflow.OperatorID, 0, len(d.Parallelism))
	for op := range d.Parallelism {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var plans []engine.RescalePlan
	for _, op := range ops {
		cur := g.Operator(op)
		if cur == nil || len(g.Upstream(op)) == 0 {
			continue
		}
		if p := d.Parallelism[op]; p > 0 && p != cur.Parallelism {
			plans = append(plans, engine.RescalePlan{Op: op, Parallelism: p, AtEpoch: atEpoch})
		}
	}
	return plans
}
