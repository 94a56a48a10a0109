package experiments

import (
	"context"
	"fmt"

	"capsys/internal/caps"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/wan"
)

// ExtWAN demonstrates the paper's §7 future-work direction: extending CAPS
// toward wide-area deployments where network links carry real propagation
// delays. CAPS produces its Pareto front over the three resource
// dimensions; the wan package then chooses the front entry (and the worker
// relabeling, which preserves resource costs exactly) that minimizes the
// dataflow's critical-path delay across a two-site topology.
func ExtWAN(ctx context.Context) (*Report, error) {
	spec := nexmark.Q1Sliding()
	// Two sites of 4 workers each (1 ms within a site, 80 ms across).
	c, err := clusterFor(8, 4)
	if err != nil {
		return nil, err
	}
	m, err := wan.Sites([]int{0, 0, 0, 0, 1, 1, 1, 1}, 0.001, 0.080)
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
	res, err := caps.Search(ctx, phys, c, u, caps.Options{
		Alpha: caps.Unbounded, Mode: caps.Exhaustive, Reorder: true,
		FrontCap: 128, MaxNodes: 2_000_000,
	})
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, fmt.Errorf("experiments: no feasible plan")
	}

	r := &Report{
		ID:     "EXT-WAN",
		Title:  "Delay-aware plan selection on a two-site WAN (Q1-sliding, 1ms intra / 80ms inter)",
		Header: []string{"plan", "path delay(ms)", "C_cpu", "C_io", "C_net"},
	}
	rawDelay, err := wan.PathDelay(phys, res.Plan, m)
	if err != nil {
		return nil, err
	}
	r.AddRow("caps (delay-oblivious)", rawDelay*1000, res.Cost.CPU, res.Cost.IO, res.Cost.Net)

	sel, err := wan.SelectMinDelay(res, phys, m)
	if err != nil {
		return nil, err
	}
	r.AddRow("caps + min-delay selection", sel.DelaySec*1000,
		sel.ResourceCost.CPU, sel.ResourceCost.IO, sel.ResourceCost.Net)

	// Hierarchical (site-aware) placement: the 16-task query fits inside
	// one 16-slot site, so CAPS restricted to that site avoids cross-site
	// hops entirely.
	hier, err := wan.PlaceHierarchical(ctx, phys, c, u, m, []int{0, 0, 0, 0, 1, 1, 1, 1}, caps.Options{
		Alpha: caps.Unbounded, Reorder: true, MaxNodes: 2_000_000,
	})
	if err != nil {
		return nil, err
	}
	r.AddRow("caps hierarchical (site-local)", hier.DelaySec*1000,
		hier.ResourceCost.CPU, hier.ResourceCost.IO, hier.ResourceCost.Net)
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d Pareto-front plans considered; worker relabeling preserves resource costs exactly", sel.Considered),
		"expected shape: min-delay selection improves on the oblivious plan; hierarchical placement eliminates cross-site hops entirely (~1ms)")
	return r, nil
}
