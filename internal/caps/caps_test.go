package caps

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// paperExample builds the example of paper Figure 4: S -> T -> I -> K with
// parallelisms 2, 2, 4, 1 on 3 homogeneous workers with 3 slots each
// (9 compute slots total).
func paperExample(t testing.TB) (*dataflow.PhysicalGraph, *cluster.Cluster, *costmodel.Usage) {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	ops := []dataflow.Operator{
		{ID: "S", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 1e-5, Net: 200}},
		{ID: "T", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 5e-5, Net: 200}},
		{ID: "I", Kind: dataflow.KindInference, Parallelism: 4, Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 8e-4, Net: 50}},
		{ID: "K", Kind: dataflow.KindSink, Parallelism: 1, Selectivity: 0,
			Cost: dataflow.UnitCost{CPU: 1e-6}},
	}
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{{From: "S", To: "T"}, {From: "T", To: "I"}, {From: "I", To: "K"}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	p, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Homogeneous(3, 3, 4, 100e6, 1.25e8)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := dataflow.PropagateRates(g, map[dataflow.OperatorID]float64{"S": 1000})
	if err != nil {
		t.Fatal(err)
	}
	return p, c, costmodel.FromRates(g, rates)
}

func TestSearchExhaustiveFindsValidPlan(t *testing.T) {
	p, c, u := paperExample(t)
	res, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Plan == nil {
		t.Fatal("exhaustive unbounded search found no plan")
	}
	if err := res.Plan.Validate(p, c.NumWorkers(), 3); err != nil {
		t.Errorf("returned plan invalid: %v", err)
	}
	if res.Stats.Plans == 0 || res.Stats.Nodes == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if len(res.Front) == 0 {
		t.Error("exhaustive search returned empty Pareto front")
	}
	for _, fe := range res.Front {
		if err := fe.Plan.Validate(p, c.NumWorkers(), 3); err != nil {
			t.Errorf("front plan invalid: %v", err)
		}
	}
}

// The returned best plan must match a brute-force scan over all enumerated
// plans: minimal scalar cost, and Pareto-optimal.
func TestSearchAgreesWithEnumeration(t *testing.T) {
	p, c, u := paperExample(t)
	all, err := EnumeratePlans(context.Background(), p, c, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no plans enumerated")
	}
	bestScalar := math.Inf(1)
	for _, fe := range all {
		if s := costmodel.ScalarCost(fe.Cost); s < bestScalar {
			bestScalar = s
		}
	}
	res, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if got := costmodel.ScalarCost(res.Cost); math.Abs(got-bestScalar) > 1e-9 {
		t.Errorf("search best scalar cost = %v, brute force = %v", got, bestScalar)
	}
	// The best plan must not be dominated by any enumerated plan.
	for _, fe := range all {
		if fe.Cost.Dominates(res.Cost) {
			t.Errorf("best plan %v dominated by %v", res.Cost, fe.Cost)
		}
	}
	// Enumeration count must equal the search's discovered plan count.
	if int64(len(all)) != res.Stats.Plans {
		t.Errorf("enumeration found %d plans, search counted %d", len(all), res.Stats.Plans)
	}
}

func TestSearchParallelMatchesSequential(t *testing.T) {
	p, c, u := paperExample(t)
	seq, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Stats.Plans != par.Stats.Plans {
		t.Errorf("plan counts differ: seq=%d par=%d", seq.Stats.Plans, par.Stats.Plans)
	}
	if math.Abs(costmodel.ScalarCost(seq.Cost)-costmodel.ScalarCost(par.Cost)) > 1e-9 {
		t.Errorf("best costs differ: seq=%v par=%v", seq.Cost, par.Cost)
	}
	if !seq.Plan.Equal(par.Plan) {
		t.Errorf("best plans differ (tie-break should be deterministic):\nseq:\n%spar:\n%s", seq.Plan, par.Plan)
	}
}

func TestThresholdPruningShrinksSearch(t *testing.T) {
	p, c, u := paperExample(t)
	loose, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Search(context.Background(), p, c, u, Options{
		Alpha: costmodel.Vector{CPU: 0.1, IO: 1, Net: 1}, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.Plans >= loose.Stats.Plans {
		t.Errorf("tight threshold did not reduce plans: %d >= %d", tight.Stats.Plans, loose.Stats.Plans)
	}
	if tight.Stats.Nodes >= loose.Stats.Nodes {
		t.Errorf("tight threshold did not reduce nodes: %d >= %d", tight.Stats.Nodes, loose.Stats.Nodes)
	}
	// Every plan kept under the tight threshold must satisfy it.
	if tight.Feasible {
		if tight.Cost.CPU > 0.1+1e-6 {
			t.Errorf("plan violates threshold: %v", tight.Cost)
		}
	}
}

// All plans that satisfy the threshold in brute force must still be
// discoverable under pruning (pruning is safe: it never eliminates a
// satisfying plan).
func TestPruningSafety(t *testing.T) {
	p, c, u := paperExample(t)
	alpha := costmodel.Vector{CPU: 0.2, IO: 1, Net: 0.8}
	all, err := EnumeratePlans(context.Background(), p, c, u)
	if err != nil {
		t.Fatal(err)
	}
	wantCount := int64(0)
	for _, fe := range all {
		if fe.Cost.LeqAll(alpha) {
			wantCount++
		}
	}
	res, err := Search(context.Background(), p, c, u, Options{Alpha: alpha, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Plans != wantCount {
		t.Errorf("pruned search found %d plans, brute force says %d satisfy alpha", res.Stats.Plans, wantCount)
	}
}

func TestReorderingPreservesResults(t *testing.T) {
	p, c, u := paperExample(t)
	alpha := costmodel.Vector{CPU: 0.3, IO: 1, Net: 0.9}
	plain, err := Search(context.Background(), p, c, u, Options{Alpha: alpha, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	reord, err := Search(context.Background(), p, c, u, Options{Alpha: alpha, Mode: Exhaustive, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Plans != reord.Stats.Plans {
		t.Errorf("reordering changed plan count: %d vs %d", plain.Stats.Plans, reord.Stats.Plans)
	}
	if math.Abs(costmodel.ScalarCost(plain.Cost)-costmodel.ScalarCost(reord.Cost)) > 1e-9 {
		t.Errorf("reordering changed best cost: %v vs %v", plain.Cost, reord.Cost)
	}
	// Reordering should not expand more nodes (it exists to prune earlier).
	if reord.Stats.Nodes > plain.Stats.Nodes {
		t.Logf("note: reordering expanded more nodes (%d > %d) on this instance",
			reord.Stats.Nodes, plain.Stats.Nodes)
	}
}

func TestFirstFeasibleStopsEarly(t *testing.T) {
	p, c, u := paperExample(t)
	ff, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: FirstFeasible})
	if err != nil {
		t.Fatal(err)
	}
	if !ff.Feasible {
		t.Fatal("unbounded first-feasible found nothing")
	}
	if err := ff.Plan.Validate(p, c.NumWorkers(), 3); err != nil {
		t.Errorf("plan invalid: %v", err)
	}
	ex, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if ff.Stats.Nodes >= ex.Stats.Nodes {
		t.Errorf("first-feasible expanded %d nodes, exhaustive %d", ff.Stats.Nodes, ex.Stats.Nodes)
	}
}

func TestInfeasibleThreshold(t *testing.T) {
	p, c, u := paperExample(t)
	// alpha = 0 in every dimension demands a perfectly balanced plan in all
	// dimensions simultaneously, including zero network cost, which is
	// impossible for a multi-worker deployment of this graph.
	res, err := Search(context.Background(), p, c, u, Options{
		Alpha: costmodel.Vector{}, Mode: FirstFeasible})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("impossible threshold reported feasible with cost %v", res.Cost)
	}
	if res.Plan != nil {
		t.Error("infeasible result carries a plan")
	}
}

func TestSearchErrors(t *testing.T) {
	p, c, u := paperExample(t)
	small, err := cluster.Homogeneous(2, 2, 4, 1e6, 1e6) // 4 slots < 9 tasks
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(context.Background(), p, small, u, Options{Alpha: Unbounded}); err == nil {
		t.Error("insufficient slots accepted")
	}
	het, err := cluster.New([]cluster.Worker{
		{ID: "a", Slots: 8, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
		{ID: "b", Slots: 4, CPU: 4, IOBandwidth: 1, NetBandwidth: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(context.Background(), p, het, u, Options{Alpha: Unbounded}); err == nil {
		t.Error("heterogeneous slots accepted")
	}
	_ = c
	_ = u
}

func TestSearchTimeout(t *testing.T) {
	p, c, u := paperExample(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled
	res, err := Search(ctx, p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	// A canceled context may still let a few nodes through (sampled check),
	// but must terminate quickly and far below the full space.
	full, _ := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if res.Stats.Nodes >= full.Stats.Nodes {
		t.Errorf("canceled search expanded full space: %d nodes", res.Stats.Nodes)
	}
}

func TestMaxNodesLimit(t *testing.T) {
	p, c, u := paperExample(t)
	res, err := Search(context.Background(), p, c, u, Options{
		Alpha: Unbounded, Mode: Exhaustive, MaxNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes > 200 {
		t.Errorf("MaxNodes=50 expanded %d nodes", res.Stats.Nodes)
	}
}

// A parallel search under MaxNodes cuts on the same node as the serial one
// and returns the same Result: a helper's subtree that would straddle the
// budget is searched again by the committer from its own count.
func TestMaxNodesParallel(t *testing.T) {
	bc := q2joinCase(t, 64)
	opts := Options{
		Alpha: costmodel.Vector{CPU: 0.001, IO: Unbounded.IO, Net: Unbounded.Net},
		Mode:  FirstFeasible, Reorder: true, MaxNodes: 20_000, Now: goldenClock, Parallelism: 1,
	}
	want, err := Search(context.Background(), bc.phys, bc.c, bc.u, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Feasible || want.Stats.Nodes != opts.MaxNodes {
		t.Fatalf("serial search: feasible=%v after %d nodes, want an infeasible search cut at %d", want.Feasible, want.Stats.Nodes, opts.MaxNodes)
	}
	for _, par := range []int{2, 4} {
		opts.Parallelism = par
		got, err := Search(context.Background(), bc.phys, bc.c, bc.u, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: %+v, want the serial %+v", par, got.Stats, want.Stats)
		}
	}
}

func TestDuplicateEliminationCanonical(t *testing.T) {
	// Two identical workers, one operator with 2 tasks: without duplicate
	// elimination there are 3 distributions ((2,0),(1,1),(0,2)); the
	// canonical form keeps (2,0) and (1,1) only.
	g := dataflow.NewLogicalGraph()
	if err := g.AddOperator(dataflow.Operator{ID: "a", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1,
		Cost: dataflow.UnitCost{CPU: 1e-4}}); err != nil {
		t.Fatal(err)
	}
	p, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Homogeneous(2, 2, 4, 1e6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	rates, _ := dataflow.PropagateRates(g, map[dataflow.OperatorID]float64{"a": 100})
	u := costmodel.FromRates(g, rates)
	all, err := EnumeratePlans(context.Background(), p, c, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("canonical plan count = %d, want 2", len(all))
	}
}

func TestParetoFrontEntriesNonDominated(t *testing.T) {
	p, c, u := paperExample(t)
	res, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i != j && a.Cost.Dominates(b.Cost) {
				t.Errorf("front entry %d dominates entry %d", i, j)
			}
		}
	}
}

func TestFirstFeasibleParallel(t *testing.T) {
	p, c, u := paperExample(t)
	res, err := Search(context.Background(), p, c, u, Options{
		Alpha: costmodel.Vector{CPU: 0.5, IO: 1, Net: 0.9}, Mode: FirstFeasible, Parallelism: 4,
		Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("feasible threshold reported infeasible")
	}
	if res.Cost.CPU > 0.5+1e-6 || res.Cost.Net > 0.9+1e-6 {
		t.Errorf("returned plan violates alpha: %v", res.Cost)
	}
}

// An infeasible search reports how far its budget must move before anything
// can change: the reject floor lies above the budget, and any budget between
// the two walks the same tree — exhausted or cut by MaxNodes — to the same
// counters.
func TestRejectFloorBoundsIdenticalSearches(t *testing.T) {
	bc := q2joinCase(t, 64)
	pp, pc, pu := paperExample(t)
	for _, tc := range []struct {
		name     string
		p        *dataflow.PhysicalGraph
		c        *cluster.Cluster
		u        *costmodel.Usage
		maxNodes int64
	}{
		{"exhausted", pp, pc, pu, 0},
		{"capped", bc.phys, bc.c, bc.u, 20_000},
	} {
		search := func(cpu float64) *Result {
			res, err := Search(context.Background(), tc.p, tc.c, tc.u, Options{
				Alpha: costmodel.Vector{CPU: cpu, IO: Unbounded.IO, Net: Unbounded.Net},
				Mode:  FirstFeasible, Reorder: true, MaxNodes: tc.maxNodes, Now: goldenClock,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		const tight = 0.001
		base := search(tight)
		span := base.Bounds.Max.CPU - base.Bounds.Min.CPU
		budget := base.Bounds.Min.CPU + tight*span
		floor := base.Stats.RejectFloor
		if base.Feasible || !(floor.CPU > budget) || !math.IsInf(floor.IO, 1) || !math.IsInf(floor.Net, 1) {
			t.Fatalf("%s: feasible=%v, reject floor %v, want an infeasible search with a finite CPU floor above the budget %v",
				tc.name, base.Feasible, floor, budget)
		}
		for _, frac := range []float64{0.5, 0.999} {
			alpha := tight + frac*(floor.CPU-budget)/span
			if l := budgetLimit(base.Bounds, costmodel.Vector{CPU: alpha}); !(l.CPU < floor.CPU) {
				t.Fatalf("%s: alpha %v is not below the reject floor", tc.name, alpha)
			}
			if got := search(alpha); got.Stats != base.Stats {
				t.Errorf("%s: alpha %v below the reject floor: stats %+v, want %+v", tc.name, alpha, got.Stats, base.Stats)
			}
		}
		if tc.maxNodes > 0 && base.Stats.Nodes < tc.maxNodes {
			t.Errorf("%s: search stopped at %d nodes, want the %d cap", tc.name, base.Stats.Nodes, tc.maxNodes)
		}
	}
}

// Counts that differ by a multiple of 256 must not alias in the tie-break key.
func TestCountsKeyWideWorker(t *testing.T) {
	if a, b := countsKey([][]int{{300, 0}}), countsKey([][]int{{44, 0}}); a == b {
		t.Errorf("countsKey aliases 300 and 44 tasks on one worker: %q", a)
	}
}

// TestSearchExportsStats: a search given a hub accumulates its effort
// counters there, under names that pass the registry's name check.
func TestSearchExportsStats(t *testing.T) {
	p, c, u := paperExample(t)
	tel := telemetry.New()
	cold, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: FirstFeasible, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Search(context.Background(), p, c, u, Options{Alpha: Unbounded, Mode: FirstFeasible, Warm: cold.Plan, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Registry().Snapshot()
	if snap["caps.search.runs"] != 2 || snap["caps.search.warm_runs"] != 1 {
		t.Errorf("runs %v, warm runs %v; want 2 and 1", snap["caps.search.runs"], snap["caps.search.warm_runs"])
	}
	if got, want := snap["caps.search.nodes"], float64(cold.Stats.Nodes+warm.Stats.Nodes); got != want {
		t.Errorf("caps.search.nodes = %v, want %v", got, want)
	}
	if _, ok := snap["caps.search.seconds"]; !ok {
		t.Error("caps.search.seconds not exported")
	}
}
