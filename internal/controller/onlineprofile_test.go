package controller

import (
	"context"
	"math"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

func TestNewOnlineProfilerValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewOnlineProfiler(alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
	if _, err := NewOnlineProfiler(0.3); err != nil {
		t.Fatal(err)
	}
}

// On an uncontended deployment the online estimates converge to the ground
// truth unit costs.
func TestOnlineProfilerRecoversTruth(t *testing.T) {
	spec := nexmark.Q1Sliding().Scaled(0.3) // well under capacity
	c := nexmark.ReferenceCluster()
	_, res, err := DeploySingle(context.Background(), spec, c, placement.CAPS{}, 0, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewOnlineProfiler(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Observe(ObserveSim(res, spec.Name))
	}
	for _, op := range spec.Graph.Operators() {
		got, ok := p.Cost(op.ID)
		if !ok {
			t.Fatalf("no estimate for %s", op.ID)
		}
		truth := op.Cost
		within := func(a, b float64) bool {
			if b == 0 {
				return a < 1e-9
			}
			return math.Abs(a-b)/b < 0.02
		}
		if !within(got.CPU, truth.CPU) || !within(got.IO, truth.IO) || !within(got.Net, truth.Net) {
			t.Errorf("%s: estimated %+v, truth %+v", op.ID, got, truth)
		}
	}
	// Apply installs the estimates on a clone.
	g := p.Apply(spec.Graph)
	if g == spec.Graph {
		t.Error("Apply must clone")
	}
	est, _ := p.Cost("slide-win")
	if g.Operator("slide-win").Cost != est {
		t.Error("Apply did not install the estimate")
	}
}

// Under contention the apparent CPU cost inflates — the signal a controller
// would act on.
func TestOnlineProfilerSeesContention(t *testing.T) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	slots, _ := c.SlotsPerWorker()
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	worst := nexmark.FlinkWorstCase(phys, slots)
	res, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: spec.Name, Phys: phys, Plan: worst, SourceRates: spec.SourceRates,
	}}, c, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewOnlineProfiler(1.0)
	p.Observe(ObserveSim(res, spec.Name))
	got, ok := p.Cost("slide-win")
	if !ok {
		t.Fatal("no estimate")
	}
	if got.CPU <= spec.Graph.Operator("slide-win").Cost.CPU {
		t.Errorf("contended CPU estimate %v not inflated over truth %v",
			got.CPU, spec.Graph.Operator("slide-win").Cost.CPU)
	}
}

// EWMA smoothing: after observing a contended snapshot then repeated clean
// snapshots, the estimate converges back toward truth.
func TestOnlineProfilerEWMAConvergence(t *testing.T) {
	spec := nexmark.Q1Sliding().Scaled(0.3)
	c := nexmark.ReferenceCluster()
	slots, _ := c.SlotsPerWorker()
	fullRate := nexmark.Q1Sliding()
	physFull, _ := dataflow.Expand(fullRate.Graph)
	contended, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: spec.Name, Phys: physFull, Plan: nexmark.FlinkWorstCase(physFull, slots), SourceRates: fullRate.SourceRates,
	}}, c, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, clean, err := DeploySingle(context.Background(), spec, c, placement.CAPS{}, 0, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewOnlineProfiler(0.5)
	p.Observe(ObserveSim(contended, spec.Name))
	inflated, _ := p.Cost("slide-win")
	for i := 0; i < 10; i++ {
		p.Observe(ObserveSim(clean, spec.Name))
	}
	settled, _ := p.Cost("slide-win")
	truth := spec.Graph.Operator("slide-win").Cost.CPU
	if math.Abs(settled.CPU-truth)/truth > 0.05 {
		t.Errorf("EWMA did not converge: settled %v, truth %v", settled.CPU, truth)
	}
	if inflated.CPU <= settled.CPU {
		t.Errorf("contended estimate %v should exceed settled %v", inflated.CPU, settled.CPU)
	}
}
