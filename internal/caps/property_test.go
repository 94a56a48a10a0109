package caps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
)

// randomInstance builds a random small placement problem: a layered DAG of
// 2-4 operators with random parallelism and costs, on a random cluster just
// big enough to host it.
func randomInstance(rng *rand.Rand) (*dataflow.PhysicalGraph, *cluster.Cluster, *costmodel.Usage, error) {
	numOps := 2 + rng.Intn(3)
	g := dataflow.NewLogicalGraph()
	var ids []dataflow.OperatorID
	for i := 0; i < numOps; i++ {
		id := dataflow.OperatorID(fmt.Sprintf("op%d", i))
		kind := dataflow.KindMap
		if i == 0 {
			kind = dataflow.KindSource
		}
		if i == numOps-1 {
			kind = dataflow.KindSink
		}
		op := dataflow.Operator{
			ID:          id,
			Kind:        kind,
			Parallelism: 1 + rng.Intn(3),
			Selectivity: 0.25 + rng.Float64(),
			Cost: dataflow.UnitCost{
				CPU: rng.Float64() * 1e-3,
				IO:  rng.Float64() * 1000,
				Net: rng.Float64() * 200,
			},
		}
		if err := g.AddOperator(op); err != nil {
			return nil, nil, nil, err
		}
		ids = append(ids, id)
	}
	// Chain edges plus an occasional skip edge.
	for i := 1; i < numOps; i++ {
		if err := g.AddEdge(dataflow.Edge{From: ids[i-1], To: ids[i]}); err != nil {
			return nil, nil, nil, err
		}
	}
	if numOps >= 3 && rng.Intn(2) == 0 {
		_ = g.AddEdge(dataflow.Edge{From: ids[0], To: ids[2]})
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, nil, nil, err
	}
	numWorkers := 2 + rng.Intn(2)
	slots := (phys.NumTasks() + numWorkers - 1) / numWorkers
	slots += rng.Intn(2)
	c, err := cluster.Homogeneous(numWorkers, slots, 4, 100e6, 1e9)
	if err != nil {
		return nil, nil, nil, err
	}
	rates, err := dataflow.PropagateRates(g, map[dataflow.OperatorID]float64{ids[0]: 100 + rng.Float64()*2000})
	if err != nil {
		return nil, nil, nil, err
	}
	return phys, c, costmodel.FromRates(g, rates), nil
}

// edgeAlpha is a budget at the edge of the instance's feasibility: each
// dimension of its own AutoTune α, relaxed or tightened by one ×1.1 step or
// kept — where threshold pruning and the capacity lookahead decide the most.
func edgeAlpha(t *testing.T, rng *rand.Rand, phys *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage) costmodel.Vector {
	t.Helper()
	opts := DefaultAutoTuneOptions()
	opts.Now = goldenClock
	tuned, err := AutoTune(context.Background(), phys, c, u, opts)
	if err != nil {
		t.Fatal(err)
	}
	step := func(a float64) float64 { return a * [3]float64{1 / 1.1, 1, 1.1}[rng.Intn(3)] }
	return costmodel.Vector{CPU: step(tuned.Alpha.CPU), IO: step(tuned.Alpha.IO), Net: step(tuned.Alpha.Net)}
}

// lookaheadShare asserts that the capacity lookahead refused a layer on at
// least min of the checked instances, so a property over edge budgets is not
// vacuous for it.
func lookaheadShare(t *testing.T, fired, checked int, min float64) {
	t.Helper()
	t.Logf("the lookahead refused a layer on %d of %d edge-budget instances", fired, checked)
	if checked == 0 || float64(fired) < min*float64(checked) {
		t.Errorf("the lookahead refused a layer on %d of %d edge-budget instances, want at least %.0f%%", fired, checked, 100*min)
	}
}

// Property: on random small instances, the exhaustive search returns a plan
// whose scalar cost equals the brute-force minimum, the plan validates, and
// plan counts agree — unbounded, and under a budget at the edge of
// feasibility, where the minimum is over the plans the budget admits.
func TestSearchOptimalityProperty(t *testing.T) {
	fired, checked := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			t.Logf("instance construction failed: %v", err)
			return false
		}
		all, err := EnumeratePlans(context.Background(), phys, c, u)
		if err != nil || len(all) == 0 {
			return false
		}
		best := math.Inf(1)
		for _, fe := range all {
			if s := costmodel.ScalarCost(fe.Cost); s < best {
				best = s
			}
		}
		res, err := Search(context.Background(), phys, c, u, Options{Alpha: Unbounded, Mode: Exhaustive, Now: goldenClock})
		if err != nil || !res.Feasible {
			return false
		}
		slots, _ := c.SlotsPerWorker()
		if res.Plan.Validate(phys, c.NumWorkers(), slots) != nil {
			return false
		}
		if res.Stats.Plans != int64(len(all)) || math.Abs(costmodel.ScalarCost(res.Cost)-best) >= 1e-9 {
			return false
		}
		alpha := edgeAlpha(t, rng, phys, c, u)
		want, edgeBest := int64(0), math.Inf(1)
		for _, fe := range all {
			if fe.Cost.LeqAll(alpha) {
				want++
				edgeBest = math.Min(edgeBest, costmodel.ScalarCost(fe.Cost))
			}
		}
		edge, err := Search(context.Background(), phys, c, u, Options{Alpha: alpha, Mode: Exhaustive, Now: goldenClock})
		if err != nil {
			return false
		}
		if checked++; edge.Stats.LayerPrunes > 0 {
			fired++
		}
		if edge.Stats.Plans != want || edge.Feasible != (want > 0) {
			t.Logf("seed %d: alpha %v: search found %d plans, brute force %d", seed, alpha, edge.Stats.Plans, want)
			return false
		}
		return !edge.Feasible || math.Abs(costmodel.ScalarCost(edge.Cost)-edgeBest) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	lookaheadShare(t, fired, checked, 0.4)
}

// Property: threshold pruning and the capacity lookahead are sound on random
// instances — the number of satisfying plans found, serially and in
// parallel, equals the brute-force count, under a random alpha and under a
// budget at the edge of feasibility.
func TestPruningSoundnessProperty(t *testing.T) {
	fired, checked := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		all, err := EnumeratePlans(context.Background(), phys, c, u)
		if err != nil {
			return false
		}
		random := costmodel.Vector{CPU: rng.Float64(), IO: rng.Float64(), Net: rng.Float64()}
		for i, alpha := range []costmodel.Vector{random, edgeAlpha(t, rng, phys, c, u)} {
			want := int64(0)
			for _, fe := range all {
				if fe.Cost.LeqAll(alpha) {
					want++
				}
			}
			for _, par := range []int{1, 3} {
				res, err := Search(context.Background(), phys, c, u, Options{Alpha: alpha, Mode: Exhaustive, Parallelism: par, Now: goldenClock})
				if err != nil {
					return false
				}
				if res.Stats.Plans != want {
					t.Logf("seed %d par %d: pruned found %d, brute force %d (alpha %v)", seed, par, res.Stats.Plans, want, alpha)
					return false
				}
				if i == 1 && par == 1 {
					if checked++; res.Stats.LayerPrunes > 0 {
						fired++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	lookaheadShare(t, fired, checked, 0.4)
}

// vecClose compares two vectors with relative tolerance: the incremental
// evaluator accumulates contributions in DFS order, the reference evaluator
// layer by layer, so the floats may differ by rounding.
func vecClose(a, b costmodel.Vector) bool {
	close := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(y)) }
	return close(a.CPU, b.CPU) && close(a.IO, b.IO) && close(a.Net, b.Net)
}

// Property: after any LIFO sequence of place/undo operations, the
// incrementally maintained per-worker loads, free-slot total and bottleneck
// vector exactly match a from-scratch recomputation of the same counts
// matrix.
func TestIncrementalEvalMatchesScratchProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		s, err := newSearcher(context.Background(), phys, c, u, Options{Alpha: Unbounded})
		if err != nil {
			return false
		}
		st := newState(len(s.ops), s.numWorkers, s.slots)
		col := newCollector(s)
		ref := make([]costmodel.Vector, s.numWorkers)
		check := func() bool {
			s.recomputeLoads(st, ref)
			for w := range ref {
				if !vecClose(st.loads[w], ref[w]) {
					t.Logf("seed %d: worker %d incremental %v scratch %v", seed, w, st.loads[w], ref[w])
					return false
				}
			}
			free := 0
			for _, fr := range st.free {
				free += fr
			}
			if free != st.freeTotal {
				t.Logf("seed %d: freeTotal %d, sum(free) %d", seed, st.freeTotal, free)
				return false
			}
			// The running bottleneck is an element-wise max of the very same
			// floats, so it must match bitwise.
			if st.max != costmodel.MaxLoad(st.loads) {
				t.Logf("seed %d: max %v, MaxLoad %v", seed, st.max, costmodel.MaxLoad(st.loads))
				return false
			}
			return true
		}
		// Random walk: push placements and pop undos in stack order, the same
		// discipline the DFS follows.
		var stack []placeRec
		for step := 0; step < 120; step++ {
			if len(stack) > 0 && rng.Intn(3) == 0 {
				s.unplace(st, stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			} else {
				layer := rng.Intn(len(s.ops))
				if st.placed[layer] == s.ops[layer].par {
					continue
				}
				w := rng.Intn(s.numWorkers)
				room := s.ops[layer].par - st.placed[layer]
				if st.free[w] < room {
					room = st.free[w]
				}
				if room == 0 {
					continue
				}
				rec, ok := s.place(st, layer, w, 1+rng.Intn(room), col)
				if !ok { // unbounded alpha: placements never go over budget
					s.unplace(st, rec)
					t.Logf("seed %d: place rejected under unbounded alpha", seed)
					return false
				}
				stack = append(stack, rec)
			}
			if !check() {
				return false
			}
		}
		for len(stack) > 0 {
			s.unplace(st, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the ScratchEval ablation mode explores the same tree and finds
// the same plans, front and argmin as the incremental evaluator — only the
// evaluation effort differs (scratch pays numWorkers load evaluations per
// step, incremental pays one per touched worker).
func TestScratchSearchEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		alpha := costmodel.Vector{CPU: 0.3 + rng.Float64()*0.7, IO: 0.3 + rng.Float64()*0.7, Net: 0.3 + rng.Float64()*0.7}
		base := Options{Alpha: alpha, Mode: Exhaustive, FrontCap: 1 << 20, DisableMemo: true, Now: goldenClock}
		inc, err := Search(context.Background(), phys, c, u, base)
		if err != nil {
			return false
		}
		scrOpts := base
		scrOpts.ScratchEval = true
		scr, err := Search(context.Background(), phys, c, u, scrOpts)
		if err != nil {
			return false
		}
		if inc.Stats.Plans != scr.Stats.Plans || inc.Stats.Nodes != scr.Stats.Nodes {
			t.Logf("seed %d: incremental plans=%d nodes=%d, scratch plans=%d nodes=%d",
				seed, inc.Stats.Plans, inc.Stats.Nodes, scr.Stats.Plans, scr.Stats.Nodes)
			return false
		}
		if inc.Feasible != scr.Feasible {
			return false
		}
		if inc.Feasible && !vecClose(inc.Cost, scr.Cost) {
			t.Logf("seed %d: incremental cost %v, scratch cost %v", seed, inc.Cost, scr.Cost)
			return false
		}
		// Fronts are deliberately not compared here: the two modes sum the
		// same load contributions in different orders, so costs that are
		// exactly equal in one mode can come out 1 ulp apart in the other —
		// enough to flip weak Pareto dominance between equal-bottleneck
		// plans and change front membership. Identical tree shape (Nodes),
		// identical satisfying-plan count and a matching argmin cost pin the
		// equivalence that matters; exact front identity is asserted where
		// the arithmetic is bitwise-reproducible (warm/parallel/memo tests).
		// Effort bound: per placement, scratch charges numWorkers evaluations
		// while incremental charges one for the placed worker plus one per
		// active worker of each upstream layer — at most maxUpDeg*numWorkers.
		// So incremental <= maxUpDeg*scratch always; the fig7-scale benchmark
		// pins the typical-case >=2x advantage the bound doesn't capture.
		maxUpDeg := int64(1)
		for _, op := range phys.Logical.Operators() {
			if d := int64(len(phys.Logical.Upstream(op.ID))); d > maxUpDeg {
				maxUpDeg = d
			}
		}
		if scr.Stats.CostEvals*maxUpDeg < inc.Stats.CostEvals {
			t.Logf("seed %d: scratch evals %d (maxUpDeg %d) < incremental evals %d",
				seed, scr.Stats.CostEvals, maxUpDeg, inc.Stats.CostEvals)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// frontsEquivalent compares two Pareto fronts as cost-keyed sets of plans:
// same length, and for every cost the deterministic representative plan.
func frontsEquivalent(a, b []FrontEntry) bool {
	if len(a) != len(b) {
		return false
	}
	sortFront := func(fs []FrontEntry) {
		sort.Slice(fs, func(i, j int) bool {
			ci, cj := fs[i].Cost, fs[j].Cost
			if ci.CPU != cj.CPU {
				return ci.CPU < cj.CPU
			}
			if ci.IO != cj.IO {
				return ci.IO < cj.IO
			}
			return ci.Net < cj.Net
		})
	}
	sortFront(a)
	sortFront(b)
	for i := range a {
		if !vecClose(a[i].Cost, b[i].Cost) || !a[i].Plan.Equal(b[i].Plan) {
			return false
		}
	}
	return true
}

// Property: warm-starting only permutes the exploration order. An exhaustive
// warm search returns the identical plan count, argmin plan and front as the
// cold search at every parallelism level, and a first-feasible search seeded
// with a feasible plan never expands more nodes than the cold search.
func TestWarmStartFrontierEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		alpha := costmodel.Vector{CPU: 0.4 + rng.Float64()*0.6, IO: 0.4 + rng.Float64()*0.6, Net: 0.4 + rng.Float64()*0.6}
		base := Options{Alpha: alpha, Mode: Exhaustive, FrontCap: 1 << 20, Now: goldenClock}
		cold, err := Search(context.Background(), phys, c, u, base)
		if err != nil {
			return false
		}
		if !cold.Feasible {
			return true // nothing to seed with; vacuous instance
		}
		for par := 1; par <= 3; par++ {
			warmOpts := base
			warmOpts.Warm = cold.Plan
			warmOpts.Parallelism = par
			warm, err := Search(context.Background(), phys, c, u, warmOpts)
			if err != nil {
				return false
			}
			if !warm.Stats.WarmStarted {
				return false
			}
			if warm.Stats.Plans != cold.Stats.Plans || !warm.Plan.Equal(cold.Plan) {
				t.Logf("seed %d par %d: warm plans=%d cold plans=%d planEq=%v",
					seed, par, warm.Stats.Plans, cold.Stats.Plans, warm.Plan.Equal(cold.Plan))
				return false
			}
			if !frontsEquivalent(warm.Front, cold.Front) {
				t.Logf("seed %d par %d: warm front differs from cold", seed, par)
				return false
			}
		}
		// A first-feasible search seeded with a feasible plan descends straight
		// to that plan: it returns the seed itself, in at most one node per
		// (layer, worker) choice point.
		ffWarm, err := Search(context.Background(), phys, c, u, Options{Alpha: alpha, Mode: FirstFeasible, Warm: cold.Plan, Now: goldenClock})
		if err != nil || !ffWarm.Feasible {
			return false
		}
		if !ffWarm.Plan.Equal(cold.Plan) {
			t.Logf("seed %d: warm first-feasible did not return the feasible seed", seed)
			return false
		}
		maxDescent := int64(phys.Logical.NumOperators() * c.NumWorkers())
		if ffWarm.Stats.Nodes > maxDescent {
			t.Logf("seed %d: warm first-feasible expanded %d nodes, descent bound %d", seed, ffWarm.Stats.Nodes, maxDescent)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: parallel and serial exhaustive searches select the same argmin
// plan and the same front, and with the memo off their effort counters
// agree too. These trees are below the size at which helpers join;
// TestParallelExactProperty lowers that threshold and compares whole
// Results.
func TestParallelDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		alpha := costmodel.Vector{CPU: 0.4 + rng.Float64()*0.6, IO: 0.4 + rng.Float64()*0.6, Net: 0.4 + rng.Float64()*0.6}
		base := Options{Alpha: alpha, Mode: Exhaustive, FrontCap: 1 << 20, Now: goldenClock}
		serial, err := Search(context.Background(), phys, c, u, base)
		if err != nil {
			return false
		}
		for _, par := range []int{2, 4} {
			opts := base
			opts.Parallelism = par
			res, err := Search(context.Background(), phys, c, u, opts)
			if err != nil {
				return false
			}
			if res.Feasible != serial.Feasible || res.Stats.Plans != serial.Stats.Plans {
				return false
			}
			if serial.Feasible && !res.Plan.Equal(serial.Plan) {
				t.Logf("seed %d par %d: parallel argmin differs from serial", seed, par)
				return false
			}
			if !frontsEquivalent(res.Front, serial.Front) {
				t.Logf("seed %d par %d: parallel front differs from serial", seed, par)
				return false
			}
		}
		effort := func(st Stats) [5]int64 {
			return [5]int64{st.Nodes, st.CostEvals, st.BudgetPrunes, st.LayerPrunes, st.Plans}
		}
		var want [5]int64
		for _, par := range []int{1, 2, 4} {
			opts := base
			opts.DisableMemo, opts.Parallelism = true, par
			res, err := Search(context.Background(), phys, c, u, opts)
			if err != nil {
				return false
			}
			if got := effort(res.Stats); par == 1 {
				want = got
			} else if got != want {
				t.Logf("seed %d par %d: nodes, cost evals, budget prunes, layer prunes, plans %v; serial %v", seed, par, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: memoized dominated-state pruning never changes the result — same
// satisfying-plan count, argmin and front — and never increases the node
// count.
func TestMemoEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		alpha := costmodel.Vector{CPU: 0.2 + rng.Float64()*0.6, IO: 0.2 + rng.Float64()*0.6, Net: 0.2 + rng.Float64()*0.6}
		base := Options{Alpha: alpha, Mode: Exhaustive, FrontCap: 1 << 20, Now: goldenClock}
		withMemo, err := Search(context.Background(), phys, c, u, base)
		if err != nil {
			return false
		}
		noMemoOpts := base
		noMemoOpts.DisableMemo = true
		noMemo, err := Search(context.Background(), phys, c, u, noMemoOpts)
		if err != nil {
			return false
		}
		if withMemo.Stats.Plans != noMemo.Stats.Plans || withMemo.Feasible != noMemo.Feasible {
			t.Logf("seed %d: memo plans=%d, no-memo plans=%d", seed, withMemo.Stats.Plans, noMemo.Stats.Plans)
			return false
		}
		if withMemo.Feasible && !withMemo.Plan.Equal(noMemo.Plan) {
			return false
		}
		if !frontsEquivalent(withMemo.Front, noMemo.Front) {
			return false
		}
		if withMemo.Stats.Nodes > noMemo.Stats.Nodes {
			t.Logf("seed %d: memo nodes %d > no-memo nodes %d", seed, withMemo.Stats.Nodes, noMemo.Stats.Nodes)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: reordering never changes the satisfying-plan count.
func TestReorderingInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phys, c, u, err := randomInstance(rng)
		if err != nil {
			return false
		}
		alpha := costmodel.Vector{CPU: 0.3 + rng.Float64()*0.7, IO: 0.3 + rng.Float64()*0.7, Net: 0.5 + rng.Float64()*0.5}
		plain, err := Search(context.Background(), phys, c, u, Options{Alpha: alpha, Mode: Exhaustive, Now: goldenClock})
		if err != nil {
			return false
		}
		reord, err := Search(context.Background(), phys, c, u, Options{Alpha: alpha, Mode: Exhaustive, Reorder: true, Now: goldenClock})
		if err != nil {
			return false
		}
		return plain.Stats.Plans == reord.Stats.Plans &&
			math.Abs(costmodel.ScalarCost(plain.Cost)-costmodel.ScalarCost(reord.Cost)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// autoTuneEveryStep is the reference AutoTune the skip-ahead is checked
// against: the same capacity floor, the same two relaxation schedules (stepped
// with the same multiplications), and a search at every single step.
func autoTuneEveryStep(t *testing.T, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts AutoTuneOptions) *AutoTuneResult {
	t.Helper()
	res := &AutoTuneResult{}
	feasible := func(alpha costmodel.Vector) bool {
		res.Probes++
		r, err := Search(context.Background(), p, c, u, Options{
			Alpha: alpha, Mode: FirstFeasible, Reorder: opts.Reorder, MaxNodes: 200_000, Now: goldenClock,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Feasible
	}
	slots, err := c.SlotsPerWorker()
	if err != nil {
		t.Fatal(err)
	}
	bounds := costmodel.ComputeBounds(p, u, c.NumWorkers(), slots)
	netStart := opts.InitialAlpha
	if span := bounds.Max.Net - bounds.Min.Net; span > 1e-12 {
		netCap := math.Inf(1)
		for i := 0; i < c.NumWorkers(); i++ {
			netCap = math.Min(netCap, c.Worker(i).NetBandwidth)
		}
		netStart = math.Min(1, math.Max(opts.InitialAlpha, (netCap-bounds.Min.Net)/span))
	}
	phase1 := func(start float64, probe func(a float64) costmodel.Vector) float64 {
		for a := start; ; a = math.Min(1, a*opts.RelaxPhase1) {
			if feasible(probe(a)) {
				return a
			}
			if a >= 1 {
				t.Fatalf("reference: dimension infeasible at alpha 1 (%v)", probe(a))
			}
		}
	}
	res.PerDimension = costmodel.Vector{
		CPU: phase1(opts.InitialAlpha, func(a float64) costmodel.Vector { v := Unbounded; v.CPU = a; return v }),
		IO:  phase1(opts.InitialAlpha, func(a float64) costmodel.Vector { v := Unbounded; v.IO = a; return v }),
		Net: phase1(netStart, func(a float64) costmodel.Vector { v := Unbounded; v.Net = a; return v }),
	}
	relax := func(a float64) float64 { return math.Min(1, math.Max(a*opts.RelaxPhase2, a+0.01)) }
	for res.Alpha = res.PerDimension; !feasible(res.Alpha); {
		if res.Alpha.CPU >= 1 && res.Alpha.IO >= 1 && res.Alpha.Net >= 1 {
			t.Fatal("reference: infeasible at alpha 1 everywhere")
		}
		res.Alpha = costmodel.Vector{CPU: relax(res.Alpha.CPU), IO: relax(res.Alpha.IO), Net: relax(res.Alpha.Net)}
	}
	return res
}

// sameTuning compares what AutoTune promises to keep bit-identical to the
// every-step reference.
func sameTuning(t *testing.T, label string, got, want *AutoTuneResult) bool {
	t.Helper()
	if got.Alpha != want.Alpha || got.PerDimension != want.PerDimension || got.Probes != want.Probes || got.Searches > got.Probes {
		t.Errorf("%s: AutoTune alpha %v per-dim %v probes %d searches %d; every-step reference alpha %v per-dim %v probes %d",
			label, got.Alpha, got.PerDimension, got.Probes, got.Searches, want.Alpha, want.PerDimension, want.Probes)
		return false
	}
	return true
}

// Property: stepping the schedule past probes that would repeat the previous
// infeasible probe's tree changes nothing but the number of searches — on
// random instances, serial and with parallel probes (which return the
// serial Result, capped or not), and on the search-scale shape, where it is
// the difference between 66 capped searches and a handful.
func TestAutoTuneSkipEquivalenceProperty(t *testing.T) {
	opts := DefaultAutoTuneOptions()
	opts.Now = goldenClock
	t.Run("random", func(t *testing.T) {
		f := func(seed int64) bool {
			phys, c, u, err := randomInstance(rand.New(rand.NewSource(seed)))
			if err != nil {
				return false
			}
			want := autoTuneEveryStep(t, phys, c, u, opts)
			for _, par := range []int{1, 4} {
				o := opts
				o.SearchParallelism = par
				got, err := AutoTune(context.Background(), phys, c, u, o)
				if err != nil || !sameTuning(t, fmt.Sprintf("seed %d par %d", seed, par), got, want) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Error(err)
		}
	})
	t.Run("q2join-256", func(t *testing.T) {
		bc := q2joinCase(t, 256)
		got, err := AutoTune(context.Background(), bc.phys, bc.c, bc.u, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameTuning(t, bc.query, got, autoTuneEveryStep(t, bc.phys, bc.c, bc.u, opts))
		// A capacity lookahead that refuses a layer must tell the reject
		// floor how far it stands from fitting, or the skip stops here.
		if got.Probes != 66 || got.Searches > 6 {
			t.Errorf("%d searches for %d probes, want at most 6 of 66", got.Searches, got.Probes)
		}
	})
}
