package caps

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
)

// lowSpecTune makes helpers join every search from its first completed
// subtree on, split at any layer, run beyond GOMAXPROCS, and get the P at
// every root even with one P, so the exactness battery exercises adoption on
// instances of a few hundred nodes.
func lowSpecTune(t *testing.T, grain int64) {
	t.Helper()
	saved := specTune
	specTune = specTuning{activate: 0, grain: grain, anyProcs: true, yield: true}
	t.Cleanup(func() { specTune = saved })
}

// exactInstance is a random placement problem larger than randomInstance's
// — 4-6 operators of parallelism 1-4 on 2-4 workers — so that its trees have
// several subtree roots at every split layer. Half the instances draw unit
// costs from two values per dimension and keep every rate: operators then
// repeat, and the memo prunes (with continuous costs it almost never does
// behind the capacity lookahead).
func exactInstance(rng *rand.Rand) (*dataflow.PhysicalGraph, *cluster.Cluster, *costmodel.Usage, error) {
	numOps := 4 + rng.Intn(3)
	discrete := rng.Intn(2) == 0
	draw := func(scale float64) float64 {
		if discrete {
			return float64(rng.Intn(2)) * scale
		}
		return rng.Float64() * scale
	}
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
			ID: id, Kind: kind, Parallelism: 1 + rng.Intn(4), Selectivity: 1,
			Cost: dataflow.UnitCost{CPU: 1e-3 / 2 * (1 + draw(1)), IO: draw(1000), Net: draw(200)},
		}
		if !discrete {
			op.Selectivity = 0.25 + rng.Float64()
		}
		if err := g.AddOperator(op); err != nil {
			return nil, nil, nil, err
		}
		ids = append(ids, id)
	}
	for i := 1; i < numOps; i++ {
		if err := g.AddEdge(dataflow.Edge{From: ids[i-1], To: ids[i]}); err != nil {
			return nil, nil, nil, err
		}
	}
	if rng.Intn(2) == 0 {
		_ = g.AddEdge(dataflow.Edge{From: ids[0], To: ids[2]})
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		return nil, nil, nil, err
	}
	numWorkers := 2 + rng.Intn(3)
	slots := (phys.NumTasks()+numWorkers-1)/numWorkers + rng.Intn(2)
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

// checkNoLeak fails the test if goroutines started since before are still
// running: Search waits for its helpers, so only exiting ones may linger for
// a moment.
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines outlive Search (%d before):\n%s", n-before, before, buf[:runtime.Stack(buf, true)])
	}
}

// Property: a search returns the serial Result, field by field and bit for
// bit, at any Parallelism — first-feasible and exhaustive, capped by MaxNodes
// or not, with and without the memo, warm-started or cold, reordered or not,
// with and without duplicate elimination — and no helper outlives it. The
// battery is not vacuous: helpers' subtrees are adopted on most
// configurations large enough to split, and at least one adoption is refused
// for a memo record the committer holds and one for a subtree straddling
// MaxNodes.
func TestParallelExactProperty(t *testing.T) {
	before := runtime.NumGoroutine()
	lowSpecTune(t, 1)
	var total specStats
	large, adopting := 0, 0
	// check compares the Result at Parallelism 2, 4 and 8 with the serial one.
	check := func(label string, phys *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts Options, want *Result) {
		t.Helper()
		adopted := false
		for _, par := range []int{2, 4, 8} {
			opts.Parallelism = par
			got, st, err := search(context.Background(), phys, c, u, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s par %d (%+v): Result differs from serial\n got %+v\nwant %+v", label, par, opts, got, want)
			}
			adopted = adopted || st.adopted > 0
			total.adopted += st.adopted
			total.memo += st.memo
			total.budget += st.budget
			total.raced += st.raced
			total.late += st.late
		}
		// Trees smaller than this have too few subtrees to split.
		if want.Stats.Nodes >= 100 {
			large++
			if adopted {
				adopting++
			}
		}
	}
	// options draws one configuration: either mode, MaxNodes uncapped or a
	// small random cap, memo and duplicate elimination mostly on, a budget
	// with some dimensions unbounded, and sometimes a warm seed, a front cap
	// small enough to evict (which makes the order of offers count) or the
	// from-scratch evaluator.
	options := func(rng *rand.Rand, phys *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage) Options {
		dim := func() float64 {
			if rng.Intn(3) == 0 {
				return math.Inf(1)
			}
			return 0.01 + rng.Float64()*0.6
		}
		opts := Options{
			Alpha:       costmodel.Vector{CPU: dim(), IO: dim(), Net: dim()},
			Mode:        Mode(rng.Intn(2)),
			Reorder:     rng.Intn(2) == 0,
			DisableMemo: rng.Intn(4) == 0,
			Now:         goldenClock,
			Parallelism: 1,

			DisableDuplicateElimination: rng.Intn(3) == 0,
			ScratchEval:                 rng.Intn(8) == 0,
		}
		if rng.Intn(3) == 0 {
			opts.FrontCap = 1 + rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			opts.MaxNodes = 20 + rng.Int63n(2000)
		}
		if rng.Intn(3) == 0 {
			seed, err := Search(context.Background(), phys, c, u, Options{Alpha: Unbounded, Mode: FirstFeasible, Reorder: !opts.Reorder, Now: goldenClock, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			opts.Warm = seed.Plan
		}
		return opts
	}
	// serial is the reference Result; an uncapped tree too large for the
	// battery keeps a cap of 5 000 nodes.
	serial := func(phys *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts *Options) *Result {
		uncapped := opts.MaxNodes == 0
		if uncapped {
			opts.MaxNodes = 5_000
		}
		want, _, err := search(context.Background(), phys, c, u, *opts)
		if err != nil {
			t.Fatal(err)
		}
		if uncapped && want.Stats.Nodes < opts.MaxNodes {
			opts.MaxNodes = 0
		}
		return want
	}

	rng := rand.New(rand.NewSource(1))
	for inst := 0; inst < 60; inst++ {
		seed := rng.Int63()
		irng := rand.New(rand.NewSource(seed))
		phys, c, u, err := exactInstance(irng)
		if err != nil {
			t.Fatal(err)
		}
		// Half the instances race every subtree a helper has not finished.
		specTune.grain, specTune.race = []int64{1, 8, 32}[irng.Intn(3)], irng.Intn(2) == 0
		for cfg := 0; cfg < 4; cfg++ {
			opts := options(irng, phys, c, u)
			check(fmt.Sprintf("seed %d config %d", seed, cfg), phys, c, u, opts, serial(phys, c, u, &opts))
		}
	}
	// The memo rarely prunes behind the capacity lookahead: screen random
	// configurations for some where it does, so that helpers miss records
	// the committer holds.
	memoConfigs, tries := 0, 0
	for ; memoConfigs < 12 && tries < 20_000; tries++ {
		seed := rng.Int63()
		irng := rand.New(rand.NewSource(seed))
		phys, c, u, err := exactInstance(irng)
		if err != nil {
			t.Fatal(err)
		}
		specTune.grain, specTune.race = 1, false
		opts := options(irng, phys, c, u)
		if opts.DisableMemo {
			continue
		}
		if want := serial(phys, c, u, &opts); want.Stats.MemoPrunes > 0 {
			memoConfigs++
			check(fmt.Sprintf("memo seed %d", seed), phys, c, u, opts, want)
		}
	}
	checkNoLeak(t, before)
	t.Logf("adoptions on %d of %d configurations of at least 100 nodes, %d memo-pruning configurations in %d tries: %+v", adopting, large, memoConfigs, tries, total)
	if 2*adopting < large {
		t.Errorf("helpers' subtrees adopted on %d of %d configurations of at least 100 nodes, want most", adopting, large)
	}
	if total.memo == 0 || total.budget == 0 {
		t.Errorf("no adoption refused for a memo record (%d) or a MaxNodes straddle (%d): the battery misses a case", total.memo, total.budget)
	}
}

// Cancelling the context mid-search stops the committer and every helper:
// Search returns the partial result promptly and leaves no goroutine behind.
func TestParallelCancelMidSearch(t *testing.T) {
	lowSpecTune(t, 64)
	bc := q2joinCase(t, 64)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	// No plan fits this budget, and the tree is far too large to exhaust.
	alpha := costmodel.Vector{CPU: 0.001, IO: Unbounded.IO, Net: Unbounded.Net}
	res, st, err := search(ctx, bc.phys, bc.c, bc.u, Options{Alpha: alpha, Mode: FirstFeasible, Reorder: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled search returned after %v", d)
	}
	checkNoLeak(t, before)
	if ctx.Err() == nil {
		t.Fatalf("search finished in %v, before the cancellation: %d nodes", time.Since(start), res.Stats.Nodes)
	}
	if st.adoptedNodes+st.wasted == 0 {
		t.Errorf("no helper was at work when the context was cancelled: %+v", st)
	}
}
