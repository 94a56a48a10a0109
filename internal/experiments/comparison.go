package experiments

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/odrp"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// BaselineRuns is the number of seeded repetitions for the randomized Flink
// baselines, matching the paper's 10 runs per strategy.
const BaselineRuns = 10

// Fig7 reproduces Figure 7: each of the six queries deployed in isolation on
// the reference cluster under CAPS, Flink default and Flink evenly, with the
// baselines repeated over 10 seeds to expose their run-to-run variance.
func Fig7(ctx context.Context) (*Report, error) {
	r := &Report{
		ID:    "FIG7",
		Title: "Single-query performance per placement strategy (10 runs for randomized baselines)",
		Header: []string{"query", "strategy", "tput min", "tput mean", "tput max",
			"bp mean(%)", "latency mean(ms)", "target"},
	}
	cfg := simulator.DefaultConfig()
	c := nexmark.ReferenceCluster()
	for _, spec := range nexmark.AllQueries() {
		for _, strat := range []placement.Strategy{placement.CAPS{}, placement.FlinkDefault{}, placement.FlinkEvenly{}} {
			runs := BaselineRuns
			if strat.Name() == "caps" {
				runs = 1 // deterministic
			}
			var tputs, bps, lats []float64
			for seed := 0; seed < runs; seed++ {
				_, res, err := controller.DeploySingle(ctx, spec, c, strat, int64(seed), cfg)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", spec.Name, strat.Name(), err)
				}
				qm := res.Queries[spec.Name]
				tputs = append(tputs, qm.Throughput)
				bps = append(bps, qm.Backpressure*100)
				lats = append(lats, qm.LatencySec*1000)
			}
			tMin, tMean, tMax := summarize(tputs)
			_, bpMean, _ := summarize(bps)
			_, latMean, _ := summarize(lats)
			r.AddRow(spec.Name, strat.Name(), tMin, tMean, tMax, bpMean, latMean, spec.TotalRate())
		}
	}
	r.Notes = append(r.Notes,
		"CAPS is deterministic (single run); baselines vary across seeds",
		"expected shape: CAPS >= baselines on throughput with lower backpressure and variance")
	return r, nil
}

// Fig8 reproduces Figure 8: all six queries deployed concurrently on the
// 18-worker, 144-slot multi-tenant cluster. CAPS places the whole workload
// jointly; the baselines deploy queries sequentially in randomized
// submission order.
func Fig8(ctx context.Context) (*Report, error) {
	r := &Report{
		ID:     "FIG8",
		Title:  "Multi-tenant deployment: all six queries on one 144-slot cluster",
		Header: []string{"query", "strategy", "tput mean", "target frac mean", "target frac min", "bp mean(%)"},
	}
	cfg := simulator.DefaultConfig()
	c := nexmark.MultiTenantCluster()
	// Each query's single-run target saturates 4 dedicated workers; six
	// queries share 18 workers here (not 24), so the jointly attainable
	// targets are 70% of the single-query saturation rates — matching the
	// paper's setting where all six targets are simultaneously feasible
	// and the question is which strategy actually reaches them.
	var specs []nexmark.QuerySpec
	for _, s := range nexmark.AllQueries() {
		specs = append(specs, s.Scaled(0.7))
	}
	type agg struct{ fracs, tputs, bps []float64 }
	for _, strat := range []placement.Strategy{placement.CAPS{}, placement.FlinkDefault{}, placement.FlinkEvenly{}} {
		runs := BaselineRuns
		if strat.Name() == "caps" {
			runs = 1
		}
		per := make(map[string]*agg, len(specs))
		for _, s := range specs {
			per[s.Name] = &agg{}
		}
		for seed := 0; seed < runs; seed++ {
			_, res, err := controller.DeployAll(ctx, specs, c, strat, int64(seed), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", strat.Name(), seed, err)
			}
			for _, s := range specs {
				qm := res.Queries[s.Name]
				a := per[s.Name]
				a.tputs = append(a.tputs, qm.Throughput)
				a.fracs = append(a.fracs, qm.Throughput/s.TotalRate())
				a.bps = append(a.bps, qm.Backpressure*100)
			}
		}
		for _, s := range specs {
			a := per[s.Name]
			_, tMean, _ := summarize(a.tputs)
			fMin, fMean, _ := summarize(a.fracs)
			_, bpMean, _ := summarize(a.bps)
			r.AddRow(s.Name, strat.Name(), tMean, fMean, fMin, bpMean)
		}
	}
	r.Notes = append(r.Notes,
		"expected shape: only CAPS reaches the target for all six queries")
	return r, nil
}

// Tab3 reproduces Table 3: the comparison with ODRP on Q3-inf using the
// paper's three weight configurations, reporting quality metrics and
// decision time.
func Tab3(ctx context.Context) (*Report, error) {
	spec := nexmark.Q3Inf()
	// The paper uses 4 c5d.4xlarge workers with 8 slots each.
	c, err := cluster.Homogeneous(4, 8, 8.0, 400e6, 1.25e9)
	if err != nil {
		return nil, err
	}
	cfg := simulator.DefaultConfig()
	r := &Report{
		ID:    "TAB3",
		Title: "Comparison with ODRP on Q3-inf",
		Header: []string{"policy", "backpressure(%)", "throughput(rec/s)", "latency(ms)",
			"slots", "decision time(s)"},
	}

	// CAPSys: auto-tuned thresholds + exhaustive bounded search, measured
	// end to end like the paper's 0.2s figure.
	capsStart := time.Now() //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return nil, err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return nil, err
	}
	capsPlan, err := (placement.CAPS{}).Place(ctx, phys, c, u, 0)
	if err != nil {
		return nil, err
	}
	capsTime := time.Since(capsStart) //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
	qm, err := evalPlan(spec, phys, capsPlan, c, cfg)
	if err != nil {
		return nil, err
	}
	r.AddRow("CAPSys", qm.Backpressure*100, qm.Throughput, qm.LatencySec*1000,
		spec.Graph.TotalTasks(), capsTime.Seconds())

	configs := []struct {
		name string
		w    odrp.Weights
	}{
		{"ODRP-Default", odrp.DefaultWeights()},
		{"ODRP-Weighted", odrp.WeightedWeights()},
		{"ODRP-Latency", odrp.LatencyWeights()},
	}
	var capsDecision = capsTime
	var worstODRP time.Duration
	for _, cfgW := range configs {
		res, err := odrp.Solve(ctx, spec, c, odrp.Options{
			Weights:        cfgW.w,
			MaxParallelism: 8,
			Timeout:        10 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfgW.name, err)
		}
		if res.Elapsed > worstODRP {
			worstODRP = res.Elapsed
		}
		physO, err := dataflow.Expand(res.Graph)
		if err != nil {
			return nil, err
		}
		specO := spec
		specO.Graph = res.Graph
		qmO, err := evalPlan(specO, physO, res.Plan, c, cfg)
		if err != nil {
			return nil, err
		}
		r.AddRow(cfgW.name, qmO.Backpressure*100, qmO.Throughput, qmO.LatencySec*1000,
			res.SlotsUsed, res.Elapsed.Seconds())
	}
	if capsDecision > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"ODRP worst-case decision time is %.0fx CAPSys'", float64(worstODRP)/float64(capsDecision)))
	}
	r.Notes = append(r.Notes,
		"expected shape: ODRP-Default/Weighted under-provision (high backpressure); only CAPSys meets the target cheaply and fast")
	return r, nil
}
