// Package caps implements Contention-Aware Placement Search (CAPS), the core
// contribution of the CAPSys paper (EuroSys'25, §4).
//
// CAPS explores the space of task placement plans as a tree navigated in
// depth-first order. The outer search explores one logical operator per tree
// layer; the inner search expands a layer by distributing the operator's
// tasks over the cluster's workers. Several techniques keep the search
// tractable:
//
//   - Duplicate elimination: workers with identical assignment histories are
//     interchangeable, so task counts across equivalent workers are forced
//     into canonical non-increasing order.
//   - Threshold-based pruning (§4.4.1): per-worker loads grow monotonically
//     as tasks are added, so a branch is pruned as soon as any worker's
//     accumulated load exceeds the budget implied by the threshold vector α
//     (Eq. 10).
//   - Exploration reordering (§4.4.2): operators with higher resource cost
//     are explored near the root so that over-threshold branches are pruned
//     early.
//   - Incremental evaluation: per-worker load vectors, the bottleneck load
//     and the remaining-capacity bound are maintained in O(1) per place/undo
//     instead of being recomputed from the full assignment (see eval.go; the
//     ScratchEval option restores the naive recomputation for ablation).
//   - Memoized dominated states: partial states at layer boundaries whose
//     whole subtree was proven infeasible prune later states with the same
//     interface and element-wise larger loads (see memo.go).
//   - Warm starts: a previous plan seeds the child ordering of the search, so
//     steady-state re-placements whose old plan is still feasible descend
//     straight to it (Options.Warm).
//
// The search runs on a configurable pool of goroutines that consume
// first-layer subtrees from a shared work queue (a simple form of the
// paper's dynamic work offloading), cache satisfactory plans locally, and
// merge their Pareto fronts when the space is exhausted.
//
// Network cost note: the cost model charges a task's output rate to its
// worker in proportion to the fraction of its downstream physical links that
// cross workers (Eq. 8). The search accounts for this incrementally and
// exactly for all-to-all edges; Forward edges are treated as all-to-all by
// the model (the paper's queries disable chaining, making every exchange
// all-to-all).
package caps

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/clock"
	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// Mode selects what the search returns.
type Mode int

const (
	// FirstFeasible stops at the first plan satisfying the thresholds. This
	// is the mode used online when a reconfiguration needs a plan quickly,
	// and the mode measured by the paper's Figure 10a.
	FirstFeasible Mode = iota
	// Exhaustive explores the whole (pruned) space and returns the
	// Pareto-optimal plan with minimum scalarized cost, along with the
	// Pareto front of all satisfactory plans.
	Exhaustive
)

// Unbounded is a threshold vector that disables pruning in every dimension.
var Unbounded = costmodel.Vector{CPU: math.Inf(1), IO: math.Inf(1), Net: math.Inf(1)}

// Options configures a search.
type Options struct {
	// Alpha is the pruning threshold vector ᾱ = [α_cpu, α_io, α_net].
	// Use Unbounded (or +Inf per dimension) to disable pruning.
	Alpha costmodel.Vector
	// Mode selects FirstFeasible or Exhaustive search.
	Mode Mode
	// Reorder enables search-tree exploration reordering (§4.4.2). When
	// false, operators are explored in topological order.
	Reorder bool
	// Parallelism is the number of search goroutines. Values < 1 mean 1.
	Parallelism int
	// MaxNodes aborts the search after expanding this many tree nodes
	// (0 = unlimited). The best result found so far is returned.
	MaxNodes int64
	// Timeout bounds the wall-clock search time (0 = unlimited).
	Timeout time.Duration
	// FrontCap bounds the size of the retained Pareto front per searcher
	// (0 = default 64). The minimum-scalar-cost plan is always retained, so
	// the returned plan is Pareto-optimal regardless of the cap.
	FrontCap int
	// Warm seeds the search with a previous plan: at every choice point the
	// seeded task count is tried first, so a still-feasible previous plan is
	// rediscovered in O(layers × workers) nodes. The seed only permutes the
	// child exploration order — the explored plan set, the Pareto front and
	// the selected plan are unchanged. Plans from a rescaled graph or a
	// different cluster degrade to partial hints.
	Warm *dataflow.Plan
	// ScratchEval disables incremental load maintenance and recomputes every
	// per-worker load vector from the full assignment on each placement step
	// (and each leaf). Results are identical; only the effort differs. It
	// exists as the ablation baseline for the searchperf experiment and
	// BenchmarkSearch, and implies DisableMemo.
	ScratchEval bool
	// DisableMemo turns off memoized dominated-state pruning (ablation).
	DisableMemo bool
	// DisableDuplicateElimination turns off the symmetry-breaking canonical
	// ordering across equivalent workers. Only useful for ablation studies:
	// the search then enumerates every permutation of interchangeable
	// workers.
	DisableDuplicateElimination bool
	// Telemetry, when set, accumulates search effort counters on the hub's
	// registry (caps.search.runs, .nodes, .cost_evals, .memo_prunes,
	// .budget_prunes, .warm_runs, .plans) and sets the caps.search.seconds
	// gauge to the latest search duration.
	Telemetry *telemetry.Telemetry
	// Now is the time source used for the Elapsed stat (nil = system clock).
	// The search itself never reads the wall clock — plans, fronts and
	// counters are a pure function of the inputs — so injecting a fixed
	// clock makes the whole Result, Elapsed included, reproducible.
	Now clock.Clock
}

// Stats reports search effort.
type Stats struct {
	// Nodes is the number of search tree nodes expanded.
	Nodes int64
	// Plans is the number of complete plans discovered that satisfy the
	// thresholds.
	Plans int64
	// CostEvals is the number of per-worker load-vector evaluations: one per
	// incrementally updated worker in the default mode, numWorkers per
	// placement step (and per leaf) under ScratchEval.
	CostEvals int64
	// MemoPrunes is the number of subtrees skipped by dominated-state
	// memoization.
	MemoPrunes int64
	// BudgetPrunes is the number of placements rejected by threshold-based
	// pruning.
	BudgetPrunes int64
	// RejectFloor is, per dimension, the smallest load the threshold check
	// rejected on that dimension (+Inf where it rejected none). A budget
	// whose slack-adjusted value stays below the floor in every such
	// dimension — and is no tighter than this search's — accepts and rejects
	// exactly the same placements, so the search would walk the same tree
	// (AutoTune steps its schedule past such budgets without searching).
	RejectFloor costmodel.Vector
	// WarmStarted reports whether a warm-start seed was applied.
	WarmStarted bool
	// Elapsed is the wall-clock search duration.
	Elapsed time.Duration
}

// FrontEntry is one plan on the Pareto front.
type FrontEntry struct {
	Plan *dataflow.Plan
	Cost costmodel.Vector
}

// Result is the outcome of a search.
type Result struct {
	// Feasible reports whether at least one plan satisfied the thresholds.
	Feasible bool
	// Plan is the selected plan (nil if infeasible): the first satisfactory
	// plan in FirstFeasible mode, the minimum-scalar-cost Pareto-optimal
	// plan in Exhaustive mode.
	Plan *dataflow.Plan
	// Cost is the cost vector of Plan.
	Cost costmodel.Vector
	// Front is the Pareto front of discovered plans (Exhaustive mode only).
	Front []FrontEntry
	// Stats reports search effort.
	Stats Stats
	// Bounds are the load bounds used for cost normalization.
	Bounds costmodel.Bounds
}

// ErrInsufficientSlots is returned when the cluster cannot host the graph.
var ErrInsufficientSlots = errors.New("caps: cluster has fewer slots than tasks")

// opInfo is the per-operator view used during the search.
type opInfo struct {
	id    dataflow.OperatorID
	par   int              // parallelism (tasks)
	usage costmodel.Vector // per-task usage U(t)
	// outDeg is |D(t)| for each task of this operator: the total number of
	// downstream physical links, i.e. the sum of downstream parallelisms
	// under the all-to-all model.
	outDeg int
	// upstream/downstream hold layer indices of adjacent operators in the
	// exploration order.
	upstream   []int
	downstream []int
}

// searcher holds the immutable search inputs.
type searcher struct {
	ops        []opInfo
	numWorkers int
	slots      int
	limit      costmodel.Vector // load budget plus slack (see budgetLimit)
	bounds     costmodel.Bounds
	mode       Mode
	frontCap   int
	maxNodes   int64
	noDupElim  bool
	scratch    bool
	memoOn     bool
	warm       [][]int // per-layer/per-worker seed counts (nil = cold)

	// relevant[k] lists the prefix layers adjacent to any layer >= k; memoAt
	// marks the boundaries where memoization can recur (see memo.go).
	relevant [][]int
	memoAt   []bool

	nodes        atomic.Int64
	plans        atomic.Int64
	costEvals    atomic.Int64
	memoPrunes   atomic.Int64
	budgetPrunes atomic.Int64
	stopFlag     atomic.Bool // set when FirstFeasible found or limits hit
	ctx          context.Context
}

// buildOps computes the exploration order and per-operator info.
func buildOps(p *dataflow.PhysicalGraph, u *costmodel.Usage, b costmodel.Bounds, reorder bool) ([]opInfo, error) {
	g := p.Logical
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	if reorder {
		order = reorderOps(g, u, b, order)
	}
	layerOf := make(map[dataflow.OperatorID]int, len(order))
	for i, id := range order {
		layerOf[id] = i
	}
	ops := make([]opInfo, len(order))
	for i, id := range order {
		op := g.Operator(id)
		info := opInfo{id: id, par: op.Parallelism, usage: u.Task(id)}
		for _, d := range g.Downstream(id) {
			info.outDeg += g.Operator(d).Parallelism
			info.downstream = append(info.downstream, layerOf[d])
		}
		for _, up := range g.Upstream(id) {
			info.upstream = append(info.upstream, layerOf[up])
		}
		ops[i] = info
	}
	return ops, nil
}

// reorderOps ranks operators by their normalized resource cost so that
// resource-intensive operators are explored at the top layers of the tree
// (§4.4.2). The rank of an operator is the maximum, across dimensions, of
// its aggregate usage normalized by the dimension's load range; ties are
// broken by topological position for determinism.
func reorderOps(g *dataflow.LogicalGraph, u *costmodel.Usage, b costmodel.Bounds, topo []dataflow.OperatorID) []dataflow.OperatorID {
	span := func(min, max float64) float64 {
		if max-min <= 1e-12 {
			return math.Inf(1) // dimension carries no signal
		}
		return max - min
	}
	cpuSpan := span(b.Min.CPU, b.Max.CPU)
	ioSpan := span(b.Min.IO, b.Max.IO)
	netSpan := span(b.Min.Net, b.Max.Net)
	score := func(id dataflow.OperatorID) float64 {
		op := g.Operator(id)
		uv := u.Task(id).Scale(float64(op.Parallelism))
		s := uv.CPU / cpuSpan
		if v := uv.IO / ioSpan; v > s {
			s = v
		}
		if v := uv.Net / netSpan; v > s {
			s = v
		}
		return s
	}
	pos := make(map[dataflow.OperatorID]int, len(topo))
	for i, id := range topo {
		pos[id] = i
	}
	out := append([]dataflow.OperatorID(nil), topo...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		return pos[out[i]] < pos[out[j]]
	})
	return out
}

// newSearcher validates the inputs and assembles the immutable search state.
// It is the shared setup of Search and EnumeratePlans (and gives the property
// tests direct access to the incremental evaluation machinery).
func newSearcher(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts Options) (*searcher, error) {
	slots, err := c.SlotsPerWorker()
	if err != nil {
		return nil, fmt.Errorf("caps: %w", err)
	}
	if !c.Fits(p.NumTasks()) {
		return nil, fmt.Errorf("%w: %d tasks, %d slots", ErrInsufficientSlots, p.NumTasks(), c.TotalSlots())
	}
	bounds := costmodel.ComputeBounds(p, u, c.NumWorkers(), slots)
	ops, err := buildOps(p, u, bounds, opts.Reorder)
	if err != nil {
		return nil, err
	}
	frontCap := opts.FrontCap
	if frontCap <= 0 {
		frontCap = 64
	}
	s := &searcher{
		ops:        ops,
		numWorkers: c.NumWorkers(),
		slots:      slots,
		limit:      budgetLimit(bounds, opts.Alpha),
		bounds:     bounds,
		mode:       opts.Mode,
		frontCap:   frontCap,
		maxNodes:   opts.MaxNodes,
		noDupElim:  opts.DisableDuplicateElimination,
		scratch:    opts.ScratchEval,
		memoOn:     !opts.DisableMemo && !opts.ScratchEval,
		warm:       warmCounts(opts.Warm, ops, c.NumWorkers()),
		ctx:        ctx,
	}
	if s.memoOn {
		s.buildMemoPlan()
	}
	return s, nil
}

// Search runs CAPS over physical graph p on cluster c with task usage u.
func Search(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage, opts Options) (*Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	s, err := newSearcher(ctx, p, c, u, opts)
	if err != nil {
		return nil, err
	}

	now := opts.Now.OrSystem()
	start := now()
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	var merged *collector
	if par == 1 {
		col := newCollector(s)
		st := newState(len(s.ops), s.numWorkers, s.slots)
		s.searchLayer(st, 0, col)
		merged = col
	} else {
		merged = s.searchParallel(par)
	}

	res := &Result{
		Stats: Stats{
			Nodes:        s.nodes.Load(),
			Plans:        s.plans.Load(),
			CostEvals:    s.costEvals.Load(),
			MemoPrunes:   s.memoPrunes.Load(),
			BudgetPrunes: s.budgetPrunes.Load(),
			RejectFloor:  merged.rejectFloor,
			WarmStarted:  s.warm != nil,
			Elapsed:      now.Since(start),
		},
		Bounds: s.bounds,
	}
	if merged.best != nil {
		res.Feasible = true
		res.Plan = s.materialize(merged.best)
		res.Cost = merged.bestCost
		if opts.Mode == Exhaustive {
			for _, fe := range merged.front {
				res.Front = append(res.Front, FrontEntry{Plan: s.materialize(fe.counts), Cost: fe.cost})
			}
		}
	}
	exportStats(opts.Telemetry, res.Stats)
	return res, nil
}

// exportStats accumulates one search's effort counters on the telemetry hub.
func exportStats(t *telemetry.Telemetry, st Stats) {
	if t == nil {
		return
	}
	reg := t.Registry()
	reg.Counter("caps.search.runs").Inc(1)
	reg.Counter("caps.search.nodes").Inc(st.Nodes)
	reg.Counter("caps.search.plans").Inc(st.Plans)
	reg.Counter("caps.search.cost_evals").Inc(st.CostEvals)
	reg.Counter("caps.search.memo_prunes").Inc(st.MemoPrunes)
	reg.Counter("caps.search.budget_prunes").Inc(st.BudgetPrunes)
	if st.WarmStarted {
		reg.Counter("caps.search.warm_runs").Inc(1)
	}
	reg.Gauge("caps.search.seconds").Set(st.Elapsed.Seconds())
}

// collector accumulates satisfactory plans found by one search goroutine.
type collector struct {
	s        *searcher
	best     [][]int // counts snapshot of the plan with minimum scalar cost
	bestCost costmodel.Vector
	bestKey  string // canonical tie-break key
	front    []frontEntry
	// plansLocal counts satisfying plans found by this goroutine; the memo
	// uses it to detect plan-free subtrees without touching the shared
	// atomic.
	plansLocal int64
	memo       *memoTable
	// rejectFloor is this goroutine's share of Stats.RejectFloor.
	rejectFloor costmodel.Vector
}

type frontEntry struct {
	counts [][]int
	key    string
	cost   costmodel.Vector
}

func newCollector(s *searcher) *collector {
	c := &collector{s: s, rejectFloor: Unbounded}
	if s.memoOn {
		c.memo = newMemoTable()
	}
	return c
}

func snapshotCounts(counts [][]int) [][]int {
	out := make([][]int, len(counts))
	for i := range counts {
		out[i] = append([]int(nil), counts[i]...)
	}
	return out
}

// appendCount appends a task count to a binary key: one byte, with 255
// escaping to a varint of the excess. The encoding is self-delimiting, so keys
// built from the same number of counts are equal only if every count is.
func appendCount(b []byte, v int) []byte {
	if v < 255 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(append(b, 255), uint64(v-255))
}

func countsKey(counts [][]int) string {
	b := make([]byte, 0, len(counts)*len(counts[0]))
	for _, row := range counts {
		for _, v := range row {
			b = appendCount(b, v)
		}
	}
	return string(b)
}

// offer records a satisfactory complete plan. All tie-breaking is
// lexicographic on the canonical counts key, so the retained best plan and
// Pareto front are a deterministic function of the set of offered plans —
// independent of discovery order, and therefore identical between serial and
// parallel searches.
func (c *collector) offer(counts [][]int, cost costmodel.Vector) {
	key := countsKey(counts)
	sc := costmodel.ScalarCost(cost)
	if c.best == nil || sc < costmodel.ScalarCost(c.bestCost) ||
		(sc == costmodel.ScalarCost(c.bestCost) && key < c.bestKey) {
		c.best = snapshotCounts(counts)
		c.bestCost = cost
		c.bestKey = key
	}
	if c.s.mode != Exhaustive {
		return
	}
	// Maintain the local Pareto front.
	for i := range c.front {
		fe := &c.front[i]
		if fe.cost.Dominates(cost) {
			return
		}
		if fe.cost == cost {
			// Equal-cost plans: keep the lexicographically smallest key so
			// the representative does not depend on arrival order.
			if key < fe.key {
				fe.counts = snapshotCounts(counts)
				fe.key = key
			}
			return
		}
	}
	kept := c.front[:0]
	for _, fe := range c.front {
		if !cost.Dominates(fe.cost) {
			kept = append(kept, fe)
		}
	}
	c.front = append(kept, frontEntry{counts: snapshotCounts(counts), key: key, cost: cost})
	if len(c.front) > c.s.frontCap {
		// Drop the highest scalar-cost entry to respect the cap; ties evict
		// the lexicographically largest key (again order-independent).
		wi := 0
		for i := 1; i < len(c.front); i++ {
			si, sw := costmodel.ScalarCost(c.front[i].cost), costmodel.ScalarCost(c.front[wi].cost)
			if si > sw || (si == sw && c.front[i].key > c.front[wi].key) {
				wi = i
			}
		}
		c.front = append(c.front[:wi], c.front[wi+1:]...)
	}
}

// merge folds other into c deterministically.
func (c *collector) merge(other *collector) {
	if other.best != nil {
		c.offerBest(other.best, other.bestKey, other.bestCost)
	}
	for _, fe := range other.front {
		c.offer(fe.counts, fe.cost)
	}
	c.plansLocal += other.plansLocal
	c.rejectFloor.CPU = math.Min(c.rejectFloor.CPU, other.rejectFloor.CPU)
	c.rejectFloor.IO = math.Min(c.rejectFloor.IO, other.rejectFloor.IO)
	c.rejectFloor.Net = math.Min(c.rejectFloor.Net, other.rejectFloor.Net)
}

func (c *collector) offerBest(counts [][]int, key string, cost costmodel.Vector) {
	sc := costmodel.ScalarCost(cost)
	if c.best == nil || sc < costmodel.ScalarCost(c.bestCost) ||
		(sc == costmodel.ScalarCost(c.bestCost) && key < c.bestKey) {
		c.best = counts
		c.bestCost = cost
		c.bestKey = key
	}
}

// shouldStop polls termination conditions. It is cheap enough to call per
// node expansion.
func (s *searcher) shouldStop() bool {
	if s.stopFlag.Load() {
		return true
	}
	n := s.nodes.Load()
	if s.maxNodes > 0 && n >= s.maxNodes {
		s.stopFlag.Store(true)
		return true
	}
	// Sample the context only periodically: a channel select per node would
	// dominate the cost of expanding millions of nodes.
	if n&0xFFF == 0 {
		select {
		case <-s.ctx.Done():
			s.stopFlag.Store(true)
			return true
		default:
		}
	}
	return false
}

const budgetEps = 1e-9

// budgetLimit is the largest load the threshold check accepts under alpha:
// the load budget of Eq. 10 plus, per dimension, the relative slack that
// tolerates the rounding drift incremental load maintenance accumulates
// against a from-scratch evaluation (it scales with 1+|budget| so it behaves
// sensibly around zero bounds).
func budgetLimit(b costmodel.Bounds, alpha costmodel.Vector) costmodel.Vector {
	l := costmodel.LoadBudget(b, alpha)
	l.CPU += budgetEps * (1 + math.Abs(l.CPU))
	l.IO += budgetEps * (1 + math.Abs(l.IO))
	l.Net += budgetEps * (1 + math.Abs(l.Net))
	return l
}

// overBudget checks one worker's load against the pruning budget. A rejected
// load lowers col's reject floor in the first dimension that violates.
func (s *searcher) overBudget(l *costmodel.Vector, col *collector) bool {
	f := &col.rejectFloor
	switch {
	case l.CPU > s.limit.CPU:
		if l.CPU < f.CPU {
			f.CPU = l.CPU
		}
	case l.IO > s.limit.IO:
		if l.IO < f.IO {
			f.IO = l.IO
		}
	case l.Net > s.limit.Net:
		if l.Net < f.Net {
			f.Net = l.Net
		}
	default:
		return false
	}
	s.budgetPrunes.Add(1)
	return true
}

// searchLayer runs the outer search: distribute the tasks of layer k, then
// recurse into layer k+1. A complete assignment of all layers is a leaf. It
// returns whether the subtree was explored to completion (false when a stop
// condition cut it short), which gates memo recording: a subtree is recorded
// as plan-free only when it was fully explored and yielded no satisfying
// plan.
func (s *searcher) searchLayer(st *state, layer int, col *collector) bool {
	if layer == len(s.ops) {
		s.leaf(st, col)
		return true
	}
	var key []byte
	if col.memo != nil && s.memoAt[layer] {
		key = s.memoKey(st, layer)
		if col.memo.hit(key, st.loads) {
			s.memoPrunes.Add(1)
			return true
		}
	}
	plansBefore := col.plansLocal
	complete := s.innerSearch(st, layer, 0, s.ops[layer].par, -1, st.freeTotal-st.free[0], col, func() bool {
		return s.searchLayer(st, layer+1, col)
	})
	if key != nil && complete && col.plansLocal == plansBefore {
		col.memo.record(key, st.loads)
	}
	return complete
}

// innerSearch distributes the remaining tasks of layer over workers starting
// at index w. prevCount is the count chosen for worker w-1 when w-1 and w are
// equivalent (or -1 when unconstrained); capAfter is the total free capacity
// of workers after w (threaded down incrementally instead of recomputed per
// node); done is invoked when the layer is fully placed. The return value
// reports completion (false when a stop condition fired inside the subtree).
func (s *searcher) innerSearch(st *state, layer, w, remaining, prevCount, capAfter int, col *collector, done func() bool) bool {
	if remaining == 0 {
		return done()
	}
	if w == s.numWorkers {
		return true // dead end: tasks left but no workers
	}
	if s.shouldStop() {
		return false
	}
	// Capacity-based lower bound: workers after w must be able to absorb
	// what we don't place here.
	lo := remaining - capAfter
	if lo < 0 {
		lo = 0
	}
	hi := st.free[w]
	if remaining < hi {
		hi = remaining
	}
	// Duplicate elimination: if w is equivalent to w-1, cap the count by the
	// predecessor's choice (canonical non-increasing order).
	if prevCount >= 0 && s.equivalent(st, layer, w) && prevCount < hi {
		hi = prevCount
	}
	// Warm start: the seeded count is tried first, so a still-feasible
	// previous plan is rediscovered without backtracking. The seed only
	// permutes the child order — every count in [lo, hi] is still explored
	// exactly once.
	warm, first := -1, hi
	if s.warm != nil {
		if d := s.warm[layer][w]; d >= lo && d <= hi {
			warm, first = d, hi+1 // one leading iteration for the seed
		}
	}
	// The other counts are explored in descending order: the greedy (packed)
	// prefix either reaches a leaf in O(layers x workers) steps or violates
	// the load budget immediately and is pruned in O(1), steering the search
	// toward the most balanced counts that still fit. Ascending order would
	// walk enormous futile subtrees on large clusters, where small counts
	// early make the capacity lower bound unsatisfiable only dozens of
	// workers later.
	complete := true
	for i := first; i >= lo; i-- {
		c := i
		if i > hi {
			c = warm
		} else if c == warm {
			continue
		}
		s.nodes.Add(1)
		rec, ok := s.place(st, layer, w, c, col)
		if ok {
			next := 0
			if w+1 < s.numWorkers {
				next = capAfter - st.free[w+1]
			}
			if !s.innerSearch(st, layer, w+1, remaining-c, c, next, col, done) {
				complete = false
			}
		}
		s.unplace(st, rec)
		if s.shouldStop() {
			return false
		}
	}
	return complete
}

// equivalent reports whether worker w and worker w-1 have identical
// assignment histories (same counts in all completed layers and in the
// current layer so far — the latter is vacuous because the inner search
// walks workers left to right).
func (s *searcher) equivalent(st *state, layer, w int) bool {
	if w == 0 || s.noDupElim {
		return false
	}
	for l := range s.ops {
		if l == layer {
			continue
		}
		if st.counts[l][w] != st.counts[l][w-1] {
			return false
		}
	}
	return true
}

// placeRec records what a place call changed, so unplace can restore the
// state exactly. It is a small value — the hot DFS loop passes it on the
// stack and placements allocate nothing.
type placeRec struct {
	layer, w, c int
	base        int              // undo-log offset before this placement
	prevMax     costmodel.Vector // bottleneck before this placement
}

// place assigns c tasks of layer onto worker w, applying load deltas
// (including network contributions involving already-placed adjacent
// layers). It returns a record for unplace — which must always be called —
// and whether the placement stays within budget and slot capacity.
//
// The incremental path updates only the touched workers' load vectors, the
// running bottleneck load and the free-capacity total — O(occupied adjacent
// workers) per step, independent of cluster size. Touched workers' previous
// loads are snapshotted onto the state's shared undo log, so unplace restores
// the exact previous floats (subtracting the delta back would leave 1-ulp
// drift and make results depend on sibling exploration history;
// snapshot-restore keeps every state bitwise reproducible, which the
// determinism property tests pin). Under ScratchEval the loads of every
// worker are instead recomputed from the full counts matrix.
func (s *searcher) place(st *state, layer, w, c int, col *collector) (placeRec, bool) {
	r := placeRec{layer: layer, w: w, c: c}
	if c == 0 {
		return r, true
	}
	if s.scratch {
		return r, s.placeScratch(st, layer, w, c, col)
	}
	r.base = len(st.undoW)
	r.prevMax = st.max
	op := &s.ops[layer]

	st.free[w] -= c
	st.freeTotal -= c
	if st.counts[layer][w] == 0 {
		st.active[layer] = append(st.active[layer], w)
	}
	st.counts[layer][w] += c
	st.placed[layer] += c

	fc := float64(c)
	// Worker w's own delta combines compute, state access and the network
	// charge for the new tasks' links to already-placed downstream tasks on
	// other workers (Eq. 8) — one evaluation for the placement target.
	self := costmodel.Vector{CPU: op.usage.CPU * fc, IO: op.usage.IO * fc}
	if op.usage.Net > 0 && op.outDeg > 0 {
		perLink := op.usage.Net / float64(op.outDeg)
		remote := 0
		for _, dl := range op.downstream {
			remote += st.placed[dl] - st.counts[dl][w]
		}
		if remote > 0 {
			self.Net = perLink * float64(remote) * fc
		}
	}
	st.undoW = append(st.undoW, w)
	st.undoPrev = append(st.undoPrev, st.loads[w])
	st.loads[w] = st.loads[w].Add(self)

	// Network: upstream tasks already placed gain c new downstream links;
	// links from workers other than w are remote (Eq. 8). Only workers that
	// actually hold tasks of the upstream layer are visited.
	for _, ul := range op.upstream {
		up := &s.ops[ul]
		if up.usage.Net == 0 || up.outDeg == 0 {
			continue
		}
		perLink := up.usage.Net / float64(up.outDeg)
		for _, uw := range st.active[ul] {
			if uw == w {
				continue
			}
			st.undoW = append(st.undoW, uw)
			st.undoPrev = append(st.undoPrev, st.loads[uw])
			st.loads[uw] = st.loads[uw].Add(costmodel.Vector{Net: perLink * float64(st.counts[ul][uw]) * fc})
		}
	}

	// Track the bottleneck load — deltas are non-negative, so the maximum
	// only grows and the previous value is restored on unplace; loads are
	// finite and non-negative, so plain compares give math.Max's bits — and
	// prune on monotonicity: check every touched worker. A rejected placement
	// is undone at once, so the maximum may skip the workers after the
	// violating one.
	touched := st.undoW[r.base:]
	s.costEvals.Add(int64(len(touched)))
	for _, tw := range touched {
		l := &st.loads[tw]
		if l.CPU > st.max.CPU {
			st.max.CPU = l.CPU
		}
		if l.IO > st.max.IO {
			st.max.IO = l.IO
		}
		if l.Net > st.max.Net {
			st.max.Net = l.Net
		}
		if s.overBudget(l, col) {
			return r, false
		}
	}
	return r, true
}

// unplace reverts a place call. Records must be unplaced in LIFO order.
func (s *searcher) unplace(st *state, r placeRec) {
	if r.c == 0 {
		return
	}
	st.free[r.w] += r.c
	st.freeTotal += r.c
	st.counts[r.layer][r.w] -= r.c
	st.placed[r.layer] -= r.c
	if s.scratch {
		return
	}
	if st.counts[r.layer][r.w] == 0 {
		st.active[r.layer] = st.active[r.layer][:len(st.active[r.layer])-1]
	}
	for i := len(st.undoW) - 1; i >= r.base; i-- {
		st.loads[st.undoW[i]] = st.undoPrev[i]
	}
	st.undoW = st.undoW[:r.base]
	st.undoPrev = st.undoPrev[:r.base]
	st.max = r.prevMax
}

// placeScratch is the naive evaluation path: it updates the counts matrix and
// then rebuilds every worker's load vector from scratch before checking the
// budget. Its unplace restores only the counts — any later consumer of loads
// (the next placement or a leaf) recomputes them first.
func (s *searcher) placeScratch(st *state, layer, w, c int, col *collector) bool {
	st.free[w] -= c
	st.freeTotal -= c
	st.counts[layer][w] += c
	st.placed[layer] += c
	s.recomputeLoads(st, st.loads)
	s.costEvals.Add(int64(s.numWorkers))
	for i := range st.loads {
		if s.overBudget(&st.loads[i], col) {
			return false
		}
	}
	return true
}

// leaf handles a complete assignment.
func (s *searcher) leaf(st *state, col *collector) {
	s.plans.Add(1)
	col.plansLocal++
	var bottleneck costmodel.Vector
	if s.scratch {
		// Loads can be stale here when the final placements were zero-count;
		// the naive path recomputes from the full assignment.
		s.recomputeLoads(st, st.loads)
		s.costEvals.Add(int64(s.numWorkers))
		bottleneck = costmodel.MaxLoad(st.loads)
	} else {
		bottleneck = st.max
	}
	cost := costmodel.CostFromLoad(bottleneck, s.bounds)
	col.offer(st.counts, cost)
	if s.mode == FirstFeasible {
		s.stopFlag.Store(true)
	}
}

// searchParallel distributes first-layer subtrees to a pool of workers via a
// shared queue. Each worker keeps a local collector; fronts are merged after
// the space is exhausted.
func (s *searcher) searchParallel(par int) *collector {
	type workItem struct{ st *state }
	queue := make(chan workItem, par*2)

	// Producer: enumerate layer-0 assignments and ship each completed
	// layer-0 state as a subtree root. Its collector never sees a plan; it
	// holds the reject floor of the layer-0 placements.
	prod := newCollector(s)
	go func() {
		defer close(queue)
		st := newState(len(s.ops), s.numWorkers, s.slots)
		s.innerSearch(st, 0, 0, s.ops[0].par, -1, st.freeTotal-st.free[0], prod, func() bool {
			if s.shouldStop() {
				return false
			}
			select {
			case queue <- workItem{st: st.clone()}:
				return true
			case <-s.ctx.Done():
				return false
			}
		})
	}()

	collectors := make([]*collector, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		col := newCollector(s)
		collectors[i] = col
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range queue {
				if s.shouldStop() && s.mode == FirstFeasible {
					continue // drain
				}
				s.searchLayer(item.st, 1, col)
			}
		}()
	}
	wg.Wait()

	// The consumers return once the producer has closed the queue, so its
	// collector is quiescent here too.
	merged := prod
	for _, col := range collectors {
		merged.merge(col)
	}
	return merged
}

// materialize converts a counts matrix into a concrete Plan, assigning task
// indices of each operator to workers in ascending worker order.
func (s *searcher) materialize(counts [][]int) *dataflow.Plan {
	total := 0
	for _, op := range s.ops {
		total += op.par
	}
	pl := dataflow.NewPlanSized(total)
	for layer, op := range s.ops {
		idx := 0
		for w := 0; w < s.numWorkers; w++ {
			for k := 0; k < counts[layer][w]; k++ {
				pl.Assign(dataflow.TaskID{Op: op.id, Index: idx}, w)
				idx++
			}
		}
	}
	return pl
}

// EnumeratePlans exhaustively enumerates all canonical (duplicate-eliminated)
// placement plans without pruning and returns them with their cost vectors.
// It is intended for small instances (empirical studies and tests, e.g. the
// paper's 80-plan study of Figure 2).
func EnumeratePlans(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, u *costmodel.Usage) ([]FrontEntry, error) {
	s, err := newSearcher(ctx, p, c, u, Options{
		Alpha:       Unbounded,
		Mode:        Exhaustive,
		FrontCap:    math.MaxInt32,
		DisableMemo: true,
	})
	if err != nil {
		if errors.Is(err, ErrInsufficientSlots) {
			return nil, ErrInsufficientSlots
		}
		return nil, err
	}
	var all []FrontEntry
	col := newCollector(s)
	st := newState(len(s.ops), s.numWorkers, s.slots)
	// Intercept leaves by wrapping the layer recursion manually.
	var rec func(layer int) bool
	rec = func(layer int) bool {
		if layer == len(s.ops) {
			cost := costmodel.CostFromLoad(st.max, s.bounds)
			all = append(all, FrontEntry{Plan: s.materialize(st.counts), Cost: cost})
			return true
		}
		return s.innerSearch(st, layer, 0, s.ops[layer].par, -1, st.freeTotal-st.free[0], col, func() bool { return rec(layer + 1) })
	}
	rec(0)
	if err := ctx.Err(); err != nil {
		return all, err
	}
	return all, nil
}
