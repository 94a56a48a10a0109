package controller

import (
	"context"
	"testing"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
)

func TestRunRescaleLive(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c := recoveryCluster(t, spec, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, strat := range []placement.Strategy{placement.FlinkEvenly{}, placement.CAPS{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			out, err := mustLaunch(t, spec, c, strat, LaunchOptions{Seed: 7}).Run(ctx, engine.JobOptions{
				RecordsPerSource: 600,
				SnapshotInterval: 100,
				SourceRate:       map[dataflow.OperatorID]float64{"src": 20000},
				Rescales:         []engine.RescalePlan{{Op: "slide-win", Parallelism: 5, AtEpoch: 2}},
			})
			if err != nil {
				t.Fatal(err)
			}
			res := out.Result
			if res.Rescales != 1 {
				t.Fatalf("Rescales = %d, want 1", res.Rescales)
			}
			if res.Failed || res.LostRecords != 0 {
				t.Fatalf("rescale lost records: failed=%v lost=%d", res.Failed, res.LostRecords)
			}
			if res.RescaleMovedBytes <= 0 {
				t.Error("shrinking the window operator must move state")
			}
			if res.RescaleDowntime <= 0 {
				t.Error("rescale must account downtime")
			}
			seen := 0
			for id := range res.Tasks {
				if id.Op == "slide-win" {
					seen++
				}
			}
			if seen != 5 {
				t.Errorf("result has %d slide-win tasks, want 5", seen)
			}
			var wantSrc int64
			for _, op := range spec.Graph.Operators() {
				if len(spec.Graph.Upstream(op.ID)) == 0 {
					wantSrc += int64(op.Parallelism) * 600
				}
			}
			if res.SourceRecords != wantSrc {
				t.Errorf("source records = %d, want %d", res.SourceRecords, wantSrc)
			}
			snap := res.Metrics.Snapshot()
			if snap["controller.replacement_seconds"] <= 0 {
				t.Error("controller.replacement_seconds not exported")
			}
			if snap["job.rescales"] != 1 {
				t.Errorf("job.rescales = %v, want 1", snap["job.rescales"])
			}
		})
	}
}

func TestRunRescaleValidation(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c := recoveryCluster(t, spec, 4)
	// An empty schedule is simply a run; a schedule still needs checkpoints.
	if _, err := mustLaunch(t, spec, c, placement.FlinkEvenly{}, LaunchOptions{Seed: 1}).Run(context.Background(), engine.JobOptions{
		RecordsPerSource: 100,
		Rescales:         []engine.RescalePlan{{Op: "slide-win", Parallelism: 4}},
	}); err == nil {
		t.Error("rescale without SnapshotInterval accepted")
	}
}

func TestPlansFromDecision(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	d := &ds2.Decision{
		Changed: true,
		Parallelism: map[dataflow.OperatorID]int{
			"src":       4, // source: skipped even when the decision differs
			"map":       6,
			"slide-win": 12,
			"ghost":     3, // unknown operator: skipped
		},
	}
	plans := PlansFromDecision(d, spec.Graph, 4)
	if len(plans) != 2 {
		t.Fatalf("got %d plans, want 2: %+v", len(plans), plans)
	}
	// Deterministic lexical order by operator.
	if plans[0].Op != "map" || plans[0].Parallelism != 6 || plans[0].AtEpoch != 4 {
		t.Errorf("plans[0] = %+v", plans[0])
	}
	if plans[1].Op != "slide-win" || plans[1].Parallelism != 12 {
		t.Errorf("plans[1] = %+v", plans[1])
	}
	if PlansFromDecision(&ds2.Decision{Changed: false}, spec.Graph, 1) != nil {
		t.Error("unchanged decision produced plans")
	}
	if PlansFromDecision(nil, spec.Graph, 1) != nil {
		t.Error("nil decision produced plans")
	}
}
