package experiments

import (
	"context"
	"fmt"
	"math"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// Tab2 reproduces the paper's Table 2: the number of discovered plans and
// search-tree nodes for Q3-inf on an 8-worker, 4-slot cluster under various
// compute threshold factors alpha_cpu, with and without search-tree
// exploration reordering.
func Tab2(ctx context.Context) (*Report, error) {
	spec := nexmark.Q3Inf()
	c, err := cluster.Homogeneous(8, 4, 4.0, 200e6, 1.25e9)
	if err != nil {
		return nil, err
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return nil, err
	}
	alphas := []float64{math.Inf(1), 0.5, 0.2, 0.1, 0.05, 0.03, 0.01}
	r := &Report{
		ID:     "TAB2",
		Title:  "Plans and search-tree size vs alpha_cpu (Q3-inf, 8 workers x 4 slots)",
		Header: []string{"alpha_cpu", "plans", "nodes", "nodes w/ reordering"},
	}
	var loosePlans, tightPlans int64 = -1, -1
	var looseNodes, tightNodesReord int64 = -1, -1
	for _, a := range alphas {
		opts := caps.Options{
			Alpha: costmodel.Vector{CPU: a, IO: math.Inf(1), Net: math.Inf(1)},
			Mode:  caps.Exhaustive,
		}
		plain, err := caps.Search(ctx, phys, c, u, opts)
		if err != nil {
			return nil, err
		}
		opts.Reorder = true
		reord, err := caps.Search(ctx, phys, c, u, opts)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.2f", a)
		if math.IsInf(a, 1) {
			label = "inf"
		}
		r.AddRow(label, plain.Stats.Plans, plain.Stats.Nodes, reord.Stats.Nodes)
		if loosePlans < 0 {
			loosePlans, looseNodes = plain.Stats.Plans, plain.Stats.Nodes
		}
		tightPlans, tightNodesReord = plain.Stats.Plans, reord.Stats.Nodes
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("pruning shrinks plans %dx and reordering shrinks nodes %dx at the tightest threshold",
			ratioOrMax(loosePlans, tightPlans), ratioOrMax(looseNodes, tightNodesReord)))
	return r, nil
}

func ratioOrMax(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return a / b
}
