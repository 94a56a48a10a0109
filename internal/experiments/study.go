package experiments

import (
	"context"
	"fmt"
	"sort"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/simulator"
)

// planOutcome pairs a plan's model cost with its simulated performance.
type planOutcome struct {
	plan       *dataflow.Plan
	cost       costmodel.Vector
	throughput float64
	backpress  float64
}

// enumerateOutcomes exhaustively enumerates all canonical plans of a query
// on the cluster and evaluates each in the simulator.
func enumerateOutcomes(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, cfg simulator.Config) ([]planOutcome, error) {
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return nil, err
	}
	plans, err := caps.EnumeratePlans(ctx, phys, c, u)
	if err != nil {
		return nil, err
	}
	out := make([]planOutcome, 0, len(plans))
	for _, fe := range plans {
		qm, err := evalPlan(spec, phys, fe.Plan, c, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, planOutcome{
			plan:       fe.Plan,
			cost:       fe.Cost,
			throughput: qm.Throughput,
			backpress:  qm.Backpressure,
		})
	}
	return out, nil
}

// Fig2 reproduces the paper's Figure 2: the exhaustive placement study of
// Q1-sliding on the 4-worker, 16-slot reference cluster, reporting the
// three best and three worst plans by throughput.
func Fig2(ctx context.Context) (*Report, error) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	outcomes, err := enumerateOutcomes(ctx, spec, c, simulator.DefaultConfig())
	if err != nil {
		return nil, err
	}
	sort.SliceStable(outcomes, func(i, j int) bool { return outcomes[i].throughput > outcomes[j].throughput })

	r := &Report{
		ID:     "FIG2",
		Title:  "Best and worst placement plans for Q1-sliding (exhaustive study)",
		Header: []string{"plan", "throughput(rec/s)", "backpressure(%)"},
	}
	n := len(outcomes)
	pick := []int{0, 1, 2, n - 3, n - 2, n - 1}
	for i, idx := range pick {
		o := outcomes[idx]
		r.AddRow(fmt.Sprintf("P%d", i+1), o.throughput, o.backpress*100)
	}
	target := spec.TotalRate()
	meet := 0
	for _, o := range outcomes {
		if o.throughput >= 0.99*target {
			meet++
		}
	}
	best, worst := outcomes[0], outcomes[n-1]
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d canonical plans enumerated; %d meet the %.0f rec/s target", n, meet, target),
		fmt.Sprintf("best/worst throughput gap: %.2fx; worst backpressure %.1f%%",
			best.throughput/worst.throughput, worst.backpress*100),
	)
	return r, nil
}

// colocationStudy is the shared machinery behind Figure 3: deploy a query
// with controlled co-location degrees of one operator and report the
// performance per contention level.
func colocationStudy(id, title string, spec nexmark.QuerySpec, c *cluster.Cluster, op dataflow.OperatorID, cfg simulator.Config) (*Report, error) {
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, err
	}
	slots, err := c.SlotsPerWorker()
	if err != nil {
		return nil, err
	}
	par := spec.Graph.Operator(op).Parallelism
	low := (par + c.NumWorkers() - 1) / c.NumWorkers()
	high := slots
	if par < high {
		high = par
	}
	medium := (low + high) / 2
	if medium <= low {
		medium = low + 1
	}
	if medium > high {
		medium = high
	}
	levels := []struct {
		name  string
		group int
	}{
		{"low (spread)", low},
		{"medium", medium},
		{"high (packed)", high},
	}
	r := &Report{
		ID:     id,
		Title:  title,
		Header: []string{"contention", "tasks/worker", "throughput(rec/s)", "backpressure(%)"},
	}
	var lowTp, highTp float64
	for i, lv := range levels {
		plan := nexmark.ColocationPlan(phys, c.NumWorkers(), slots, op, lv.group)
		qm, err := evalPlan(spec, phys, plan, c, cfg)
		if err != nil {
			return nil, err
		}
		r.AddRow(lv.name, lv.group, qm.Throughput, qm.Backpressure*100)
		if i == 0 {
			lowTp = qm.Throughput
		}
		if i == len(levels)-1 {
			highTp = qm.Throughput
		}
	}
	if highTp > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("low-contention over high-contention throughput: %.2fx", lowTp/highTp))
	}
	return r, nil
}

// Fig3a reproduces Figure 3a: co-locating the compute-intensive inference
// tasks of Q3-inf.
func Fig3a(_ context.Context) (*Report, error) {
	return colocationStudy("FIG3a",
		"Co-locating compute-intensive tasks (Q3-inf inference)",
		nexmark.Q3Inf(), nexmark.ReferenceCluster(), "inference", simulator.DefaultConfig())
}

// Fig3b reproduces Figure 3b: co-locating the I/O-intensive tumbling window
// join tasks of Q2-join.
func Fig3b(_ context.Context) (*Report, error) {
	return colocationStudy("FIG3b",
		"Co-locating I/O-intensive tasks (Q2-join tumbling window join)",
		nexmark.Q2Join(), nexmark.ReferenceCluster(), "tumble-join", simulator.DefaultConfig())
}

// Fig3c reproduces Figure 3c: co-locating network-intensive tasks of Q3-inf
// with per-worker outbound bandwidth capped at 1 Gbit/s.
func Fig3c(_ context.Context) (*Report, error) {
	// The reference cluster throttled to 1 Gbit/s outbound per worker.
	c, err := cluster.Homogeneous(4, 4, 4.0, 200e6, 125e6)
	if err != nil {
		return nil, err
	}
	// decode emits the large decoded tensors; co-locating decode tasks (and
	// with them the upstream source traffic) concentrates outbound traffic.
	return colocationStudy("FIG3c",
		"Co-locating network-intensive tasks (Q3-inf, 1 Gbit/s per worker)",
		nexmark.Q3Inf(), c, "decode", simulator.DefaultConfig())
}

// Fig5 reproduces Figure 5: the relationship between a plan's cost vector
// and its simulated throughput for Q1-sliding, demonstrating that a cost
// threshold separates high-performing plans.
func Fig5(ctx context.Context) (*Report, error) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	outcomes, err := enumerateOutcomes(ctx, spec, c, simulator.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Bucket plans by IO cost (the dominant dimension for Q1-sliding) and
	// report mean throughput per bucket.
	r := &Report{
		ID:     "FIG5",
		Title:  "Plan cost vs throughput for Q1-sliding (threshold separability)",
		Header: []string{"C_io bucket", "plans", "mean throughput(rec/s)", "mean C_cpu", "mean C_net"},
	}
	buckets := []struct {
		lo, hi float64
	}{{0, 0.1}, {0.1, 0.2}, {0.2, 0.4}, {0.4, 0.7}, {0.7, 1.01}}
	for _, bk := range buckets {
		var tps, cpus, nets []float64
		for _, o := range outcomes {
			if o.cost.IO >= bk.lo && o.cost.IO < bk.hi {
				tps = append(tps, o.throughput)
				cpus = append(cpus, o.cost.CPU)
				nets = append(nets, o.cost.Net)
			}
		}
		if len(tps) == 0 {
			continue
		}
		_, meanTp, _ := summarize(tps)
		_, meanCPU, _ := summarize(cpus)
		_, meanNet, _ := summarize(nets)
		r.AddRow(fmt.Sprintf("[%.1f,%.1f)", bk.lo, bk.hi), len(tps), meanTp, meanCPU, meanNet)
	}
	// Shape check data: mean throughput below vs above an IO-cost
	// threshold of 0.2.
	var below, above []float64
	for _, o := range outcomes {
		if o.cost.IO <= 0.2 {
			below = append(below, o.throughput)
		} else {
			above = append(above, o.throughput)
		}
	}
	_, mb, _ := summarize(below)
	_, ma, _ := summarize(above)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"plans with C_io<=0.2 average %.0f rec/s vs %.0f rec/s above: low cost <=> high throughput", mb, ma))
	return r, nil
}
