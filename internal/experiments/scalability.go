package experiments

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
)

// fig10Alphas are the three empirically obtained threshold vectors used in
// the paper's Figure 10a.
func fig10Alphas() []struct {
	name  string
	alpha costmodel.Vector
} {
	return []struct {
		name  string
		alpha costmodel.Vector
	}{
		{"a1", costmodel.Vector{CPU: 0.08, IO: 0.15, Net: 0.6}},
		{"a2", costmodel.Vector{CPU: 0.15, IO: 0.25, Net: 0.8}},
		{"a3", costmodel.Vector{CPU: 0.25, IO: 0.3, Net: 0.9}},
	}
}

// Fig10a reproduces Figure 10a: the time CAPS needs to find the first plan
// satisfying the thresholds as the problem grows from 16 to 256 tasks
// (Q2-join scaled, tasks == slots).
func Fig10a(ctx context.Context) (*Report, error) {
	r := &Report{
		ID:     "FIG10a",
		Title:  "CAPS search time to first satisfying plan vs problem size (Q2-join)",
		Header: []string{"tasks", "workers", "alpha", "time(ms)", "nodes", "feasible"},
	}
	base := nexmark.Q2Join()
	for _, tasks := range []int{16, 32, 64, 128, 256} {
		workers := tasks / 8
		if workers < 2 {
			workers = 2
		}
		slots := tasks / workers
		if workers*slots < tasks {
			slots++
		}
		c, err := cluster.Homogeneous(workers, slots, 4.0*float64(slots)/4, 200e6*float64(slots)/4, 1.25e9)
		if err != nil {
			return nil, err
		}
		spec, err := scaleQuery(base, tasks)
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
		for _, a := range fig10Alphas() {
			start := time.Now() //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
			res, err := caps.Search(ctx, phys, c, u, caps.Options{
				Alpha:       a.alpha,
				Mode:        caps.FirstFeasible,
				Reorder:     true,
				Parallelism: 4,
				Timeout:     30 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			r.AddRow(tasks, workers, a.name, float64(time.Since(start).Microseconds())/1000, res.Stats.Nodes, res.Feasible) //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
		}
	}
	r.Notes = append(r.Notes,
		"expected shape: first satisfying plan found within tens of milliseconds even at 256 tasks; tighter alphas cost more")
	return r, nil
}

// Fig10b reproduces Figure 10b: threshold auto-tuning runtime across
// cluster shapes (8 and 16 workers x 4..64 slots, 32..1024 tasks).
func Fig10b(ctx context.Context) (*Report, error) {
	r := &Report{
		ID:     "FIG10b",
		Title:  "Threshold auto-tuning runtime vs deployment size (Q2-join)",
		Header: []string{"workers", "slots", "tasks", "time(s)", "probes", "alpha_cpu", "alpha_io", "alpha_net"},
	}
	base := nexmark.Q2Join()
	for _, workers := range []int{8, 16} {
		for _, slots := range []int{4, 8, 16, 32, 64} {
			tasks := workers * slots
			c, err := cluster.Homogeneous(workers, slots, 4.0*float64(slots)/4, 200e6*float64(slots)/4, 1.25e9)
			if err != nil {
				return nil, err
			}
			spec, err := scaleQuery(base, tasks)
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
			opts := caps.DefaultAutoTuneOptions()
			opts.Timeout = 30 * time.Second
			opts.SearchParallelism = 4
			start := time.Now() //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
			res, err := caps.AutoTune(ctx, phys, c, u, opts)
			if err != nil && err != caps.ErrAutoTuneTimeout {
				return nil, err
			}
			timedOut := ""
			if err == caps.ErrAutoTuneTimeout {
				timedOut = " (timeout)"
			}
			r.AddRow(workers, slots, tasks,
				fmt.Sprintf("%.3f%s", time.Since(start).Seconds(), timedOut), //capslint:allow determinism wall-clock effort measurement for the report, not part of plan selection
				res.Probes, res.Alpha.CPU, res.Alpha.IO, res.Alpha.Net)
		}
	}
	r.Notes = append(r.Notes,
		"expected shape: sub-second for small/medium deployments, growing with task count; acceptable because auto-tuning runs offline")
	return r, nil
}
