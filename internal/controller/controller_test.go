package controller

import (
	"context"
	"math"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
)

// profileSim profiles spec on the simulator: Profile's dedicated layout,
// evaluated at the probe rates and observed once.
func profileSim(t *testing.T, spec nexmark.QuerySpec) *OnlineProfiler {
	t.Helper()
	c, plan, probe, err := Profile(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Evaluate([]simulator.QueryDeployment{{
		Name: spec.Name, Phys: phys, Plan: plan, SourceRates: probe,
	}}, c, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewOnlineProfiler(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(ObserveSim(res, spec.Name))
	return p
}

// TestProfileRecoversUnitCosts profiles Q1-sliding on the live engine's
// dedicated layout. The engine charges every record its operator's declared
// CPU cost, so the profiled CPU per record is that cost; the window's state
// I/O and every forwarding operator's emitted bytes are measured too.
func TestProfileRecoversUnitCosts(t *testing.T) {
	spec := nexmark.Q1Sliding()
	c, plan, probe, err := Profile(spec, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Launch(context.Background(), spec, c, nil, LaunchOptions{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Run(context.Background(), engine.JobOptions{RecordsPerSource: 300, SourceRate: probe})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewOnlineProfiler(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(ObserveRun(out.Result))
	for _, op := range spec.Graph.Operators() {
		got, ok := p.Cost(op.ID)
		if !ok {
			t.Fatalf("no profiled cost for %s", op.ID)
		}
		if want := op.Cost.CPU; math.Abs(got.CPU-want)/want > 0.01 {
			t.Errorf("%s: profiled CPU %v per record, declared %v", op.ID, got.CPU, want)
		}
		if len(spec.Graph.Downstream(op.ID)) > 0 && got.Net <= 0 {
			t.Errorf("%s: profiled Net %v, but it emits downstream", op.ID, got.Net)
		}
	}
	if win, _ := p.Cost("slide-win"); win.IO <= 0 {
		t.Errorf("slide-win: profiled IO %v, but it keeps keyed state", win.IO)
	}
}

// TestProfileApply: a profile's estimates are installed on a clone of the
// graph; an operator the profile never observed keeps its declared cost.
func TestProfileApply(t *testing.T) {
	spec := nexmark.Q1Sliding()
	p := profileSim(t, spec)
	g := p.Apply(spec.Graph)
	if g == spec.Graph {
		t.Error("Apply must clone")
	}
	for _, op := range g.Operators() {
		if est, _ := p.Cost(op.ID); op.Cost != est {
			t.Errorf("%s: installed %+v, profiled %+v", op.ID, op.Cost, est)
		}
	}
	unseen, _ := NewOnlineProfiler(1)
	unseen.Observe(Observation{{Op: "map"}: {In: 100, CPU: 1}})
	g = unseen.Apply(spec.Graph)
	if got := g.Operator("map").Cost.CPU; got != 0.01 {
		t.Errorf("map: installed CPU %v, observed 0.01", got)
	}
	if got, want := g.Operator("src").Cost, spec.Graph.Operator("src").Cost; got != want {
		t.Errorf("src was never observed but its cost changed from %+v to %+v", want, got)
	}
}

func TestProfileValidation(t *testing.T) {
	spec := nexmark.Q1Sliding()
	if _, _, _, err := Profile(spec, 0); err == nil {
		t.Error("zero probe fraction accepted")
	}
	if _, _, _, err := Profile(spec, 1.5); err == nil {
		t.Error("probe fraction > 1 accepted")
	}
}

func TestDeploySingleCAPSMeetsTarget(t *testing.T) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	dep, res, err := DeploySingle(context.Background(), spec, c, placement.CAPS{}, 0, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slots, _ := c.SlotsPerWorker()
	if err := dep.Plan.Validate(dep.Phys, c.NumWorkers(), slots); err != nil {
		t.Errorf("invalid plan: %v", err)
	}
	if res.Queries[spec.Name].Admission < 0.9 {
		t.Errorf("CAPS admission = %v", res.Queries[spec.Name].Admission)
	}
}

func TestDeployAllJointVsSequential(t *testing.T) {
	// Six queries sized for 4 dedicated workers each share 18 workers, so
	// jointly attainable targets are ~70% of single-query saturation.
	var specs []nexmark.QuerySpec
	for _, s := range nexmark.AllQueries() {
		specs = append(specs, s.Scaled(0.7))
	}
	c := nexmark.MultiTenantCluster()
	cfg := simulator.DefaultConfig()

	capsDeps, capsRes, err := DeployAll(context.Background(), specs, c, placement.CAPS{}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(capsDeps) != len(specs) {
		t.Fatalf("caps deployments = %d", len(capsDeps))
	}
	// Combined slot usage respected (simulator validates, but double-check
	// plans individually too).
	for _, d := range capsDeps {
		for _, task := range d.Phys.Tasks() {
			if _, ok := d.Plan.Worker(task); !ok {
				t.Fatalf("task %v unassigned in joint plan", task)
			}
		}
	}

	defRes := make([]*simulator.Result, 0, 3)
	for seed := int64(0); seed < 3; seed++ {
		_, r, err := DeployAll(context.Background(), specs, c, placement.FlinkDefault{}, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defRes = append(defRes, r)
	}

	// CAPS meets (or nearly meets) every target; the baselines collectively
	// miss at least one query in at least one run.
	for _, q := range specs {
		if capsRes.Queries[q.Name].Admission < 0.85 {
			t.Errorf("caps: %s admission %v", q.Name, capsRes.Queries[q.Name].Admission)
		}
	}
	worstDefault := 1.0
	for _, r := range defRes {
		for _, q := range specs {
			if a := r.Queries[q.Name].Admission; a < worstDefault {
				worstDefault = a
			}
		}
	}
	capsWorst := 1.0
	for _, q := range specs {
		if a := capsRes.Queries[q.Name].Admission; a < capsWorst {
			capsWorst = a
		}
	}
	if worstDefault >= capsWorst {
		t.Errorf("default worst admission %v >= caps worst %v", worstDefault, capsWorst)
	}
}

func TestDeployAllSequentialOrderSensitivity(t *testing.T) {
	specs := nexmark.AllQueries()
	c := nexmark.MultiTenantCluster()
	deps1, _, err := DeployAll(context.Background(), specs, c, placement.FlinkDefault{}, 1, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	deps2, _, err := DeployAll(context.Background(), specs, c, placement.FlinkDefault{}, 2, simulator.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range deps1 {
		if !deps1[i].Plan.Equal(deps2[i].Plan) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical sequential deployments")
	}
}

func TestDeployAllEmpty(t *testing.T) {
	if _, _, err := DeployAll(context.Background(), nil, nexmark.ReferenceCluster(), placement.CAPS{}, 0, simulator.DefaultConfig()); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestRunTimelineConvergesWithCAPS(t *testing.T) {
	spec := nexmark.Q3Inf()
	// Generous pool so DS2 has room to scale.
	c, err := cluster.Homogeneous(8, 8, 4.0, 200e6, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[dataflow.OperatorID]int{}
	for _, op := range spec.Graph.Operators() {
		initial[op.ID] = 1
	}
	phases := []Phase{{Ticks: 6, RateFactor: 0.3}, {Ticks: 6, RateFactor: 0.9}, {Ticks: 6, RateFactor: 0.3}}
	res, err := RunTimeline(context.Background(), spec, c, placement.CAPS{}, phases, TimelineOptions{
		InitialParallelism: initial,
		ActivationTicks:    1,
		MaxParallelism:     16,
		Seed:               1,
		SimConfig:          simulator.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ticks) != 18 {
		t.Fatalf("got %d ticks", len(res.Ticks))
	}
	// By the end of each phase, throughput must be at target.
	for _, idx := range []int{5, 11, 17} {
		tk := res.Ticks[idx]
		if tk.Throughput < 0.95*tk.TargetRate {
			t.Errorf("tick %d: throughput %v below target %v", idx, tk.Throughput, tk.TargetRate)
		}
	}
	if res.ScalingActions == 0 {
		t.Error("no scaling actions recorded")
	}
	// Scale-down must actually shed tasks: final phase uses fewer tasks
	// than the peak.
	peak, final := 0, res.Ticks[17].TotalTasks
	for _, tk := range res.Ticks {
		if tk.TotalTasks > peak {
			peak = tk.TotalTasks
		}
	}
	if final >= peak {
		t.Errorf("no scale-down: final tasks %d, peak %d", final, peak)
	}
}

func TestRunTimelineCAPSFewerActionsThanDefault(t *testing.T) {
	spec := nexmark.Q3Inf()
	c, err := cluster.Homogeneous(8, 8, 4.0, 200e6, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[dataflow.OperatorID]int{}
	for _, op := range spec.Graph.Operators() {
		initial[op.ID] = 1
	}
	phases := []Phase{
		{Ticks: 8, RateFactor: 0.3}, {Ticks: 8, RateFactor: 0.9},
		{Ticks: 8, RateFactor: 0.3}, {Ticks: 8, RateFactor: 0.9},
	}
	run := func(s placement.Strategy, seed int64) int {
		res, err := RunTimeline(context.Background(), spec, c, s, phases, TimelineOptions{
			InitialParallelism: initial,
			ActivationTicks:    2,
			MaxParallelism:     16,
			Seed:               seed,
			SimConfig:          simulator.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ScalingActions
	}
	capsActions := run(placement.CAPS{}, 1)
	defActions := 0
	const runs = 3
	for seed := int64(1); seed <= runs; seed++ {
		defActions += run(placement.FlinkDefault{}, seed)
	}
	if float64(capsActions) > float64(defActions)/runs {
		t.Errorf("CAPS scaling actions %d exceed default average %v", capsActions, float64(defActions)/runs)
	}
}

func TestRunTimelineValidation(t *testing.T) {
	spec := nexmark.Q1Sliding()
	c := nexmark.ReferenceCluster()
	if _, err := RunTimeline(context.Background(), spec, c, placement.CAPS{}, nil, TimelineOptions{SimConfig: simulator.DefaultConfig()}); err == nil {
		t.Error("empty phases accepted")
	}
}

func TestIdealParallelism(t *testing.T) {
	spec := nexmark.Q3Inf()
	ideal := IdealParallelism(spec.Graph, spec.SourceRates)
	// inference: 1400 rec/s x 5.5e-3 = 7.7 -> 8 tasks.
	if ideal["inference"] != 8 {
		t.Errorf("ideal inference parallelism = %d, want 8", ideal["inference"])
	}
	for op, p := range ideal {
		if p < 1 {
			t.Errorf("ideal[%s] = %d", op, p)
		}
	}
}

func TestClampToCluster(t *testing.T) {
	spec := nexmark.Q1Sliding()
	g, err := spec.Graph.Rescale(map[dataflow.OperatorID]int{"slide-win": 40})
	if err != nil {
		t.Fatal(err)
	}
	c := nexmark.ReferenceCluster() // 16 slots
	clamped := clampToCluster(g, c)
	if clamped.TotalTasks() > c.TotalSlots() {
		t.Errorf("clamped graph still has %d tasks", clamped.TotalTasks())
	}
	// Clamping an already-fitting graph is a no-op.
	ok := spec.Graph.Clone()
	if got := clampToCluster(ok, c); got.TotalTasks() != ok.TotalTasks() {
		t.Error("clamp changed a fitting graph")
	}
}

// Profiling recovers the ground-truth unit costs for every benchmark query,
// not just Q1 (the profiler isolates operators, so cross-operator topology
// must not leak into the estimates).
func TestProfileAllQueries(t *testing.T) {
	for _, spec := range nexmark.AllQueries() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := profileSim(t, spec)
			for _, op := range spec.Graph.Operators() {
				got, ok := p.Cost(op.ID)
				if !ok {
					t.Fatalf("no profiled cost for %s", op.ID)
				}
				want := op.Cost
				within := func(a, b float64) bool {
					if b == 0 {
						return a < 1e-9
					}
					return math.Abs(a-b)/b < 0.05
				}
				if !within(got.CPU, want.CPU) || !within(got.IO, want.IO) || !within(got.Net, want.Net) {
					t.Errorf("%s: profiled %+v, truth %+v", op.ID, got, want)
				}
			}
		})
	}
}

// TestScaleIdleLiveTask: a live task that sat idle for the whole run reports
// a useful fraction of 0, which DS2 itself rejects; the observation's one
// conversion clamps it, so the run still yields a decision.
func TestScaleIdleLiveTask(t *testing.T) {
	spec := nexmark.Q1Sliding()
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	res := &engine.JobResult{Elapsed: time.Second, Tasks: make(map[dataflow.TaskID]engine.TaskStats)}
	for _, id := range phys.Tasks() {
		res.Tasks[id] = engine.TaskStats{ObservedInRate: 1000, ObservedOutRate: 1000, UsefulFraction: 0.5}
	}
	res.Tasks[dataflow.TaskID{Op: "slide-win", Index: 3}] = engine.TaskStats{}
	dec, err := ObserveRun(res).Scale(spec.Graph, spec.SourceRates, ds2.Options{})
	if err != nil {
		t.Fatalf("an idle task stopped the DS2 decision: %v", err)
	}
	if dec.Parallelism["slide-win"] < 1 {
		t.Errorf("slide-win parallelism %d", dec.Parallelism["slide-win"])
	}
}
