package caps

import (
	"math"
	"slices"

	"capsys/internal/costmodel"
)

// The capacity lookahead at every layer entry (DESIGN.md §4, refinement 7).
//
// Threshold pruning rejects a placement only once it pushes a worker over the
// budget, so a layer whose tasks cannot fit on the slots and budget still
// free is otherwise discovered by walking its whole inner search. Before a
// layer is expanded, layerFits bounds how many of its tasks each worker can
// still take, and refuses the layer when the bounds fall short of its
// parallelism.
//
// The bound is the worker's fit: the most tasks j <= free for which its own
// load plus j tasks' load stays within the limit in every dimension. place
// charges the target worker its load at that moment plus perTask×c, and that
// load only grows while the layer is placed (other workers' tasks add Net to
// it as an upstream worker), so a count over the fit fails in place too. The
// Net charged to upstream workers is left out, which only loosens the bound.
// So every plan below the layer gives each worker at most its fit, and when
// the fits sum to less than the layer's parallelism there is no plan: the
// layer is reported explored and plan-free without expanding a node.
//
// The fit is computed with place's own expression (see fitCount), so float
// rounding can never refuse a count place would accept, and a refusal moves
// no plan, front or first-feasible result — only the effort counters.
//
// A layer is entered once per distribution of the layers above it, and
// between two entries the DFS has changed only the workers it placed on since.
// So each layer keeps its workers' fits and their sums, and an entry
// recomputes only the workers whose state.ver moved.

// layerFit is one layer's fits for the workers of one state, and their sums.
type layerFit struct {
	memo  []fitMemo
	fit   int    // Σ memo.fit
	short [3]int // Σ memo.short
}

// fitMemo is one worker's fit for one layer, computed at version ver of the
// worker from its load, its Net charge per task and its free slots.
type fitMemo struct {
	ver    uint64
	load   costmodel.Vector
	perNet float64
	free   int
	// fit is the tasks the worker can take; short is, per dimension (CPU,
	// IO, Net), free minus its fit in that dimension alone, and step the
	// first load that dimension's budget must admit for that fit to grow
	// (+Inf when every free slot fits).
	fit   int
	short [3]int
	step  [3]float64
}

// per is the load one task of op adds to the worker, per dimension.
func (m *fitMemo) per(op *opInfo) [3]float64 {
	return [3]float64{op.usage.CPU, op.usage.IO, m.perNet}
}

// layerFits reports whether the workers' fits can take the tasks of layer.
// When they cannot, the layer is counted in LayerPrunes and the reject floor
// learns how far the budget must move before it could fit (see refuseFloor).
func (s *searcher) layerFits(st *state, layer int, col *collector) bool {
	if s.scratch {
		// The scratch unplace restores counts only, so loads may be stale;
		// recomputed, any of them may have changed.
		s.recomputeLoads(st, st.loads)
		col.costEvals += int64(s.numWorkers)
		for w := range st.ver {
			st.touch(w)
		}
	}
	op := &s.ops[layer]
	lf := col.fitsFor(s, st, layer)
	for w := range lf.memo {
		m := &lf.memo[w]
		if m.ver == st.ver[w] {
			continue
		}
		fit, short := m.fit, m.short
		s.fitWorker(m, st, op, w)
		lf.fit += m.fit - fit
		for _, d := range s.bounded {
			lf.short[d] += m.short[d] - short[d]
		}
	}
	if lf.fit >= op.par {
		return true
	}
	col.layerPrunes++
	s.refuseFloor(st, op, lf, col)
	return false
}

// fitsFor returns the goroutine's fits of layer for st. Versions compare
// only within one state, so a new state starts every layer afresh.
func (c *collector) fitsFor(s *searcher, st *state, layer int) *layerFit {
	if c.fitsOf != st {
		if c.fits == nil {
			c.fits = make([]layerFit, len(s.ops))
			memo := make([]fitMemo, len(s.ops)*s.numWorkers)
			for l := range c.fits {
				c.fits[l].memo = memo[l*s.numWorkers : (l+1)*s.numWorkers]
			}
		}
		for l := range c.fits {
			lf := &c.fits[l]
			// No state's version reaches MaxUint64, so every fit is computed
			// at the state's first entry into the layer.
			for w := range lf.memo {
				lf.memo[w] = fitMemo{ver: math.MaxUint64}
			}
			lf.fit, lf.short = 0, [3]int{}
		}
		c.fitsOf = st
	}
	return &c.fits[layer]
}

// fitWorker recomputes m, worker w's fit for the tasks of op.
func (s *searcher) fitWorker(m *fitMemo, st *state, op *opInfo, w int) {
	free := st.free[w]
	*m = fitMemo{ver: st.ver[w], load: st.loads[w], free: free, fit: free, step: [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}}
	if !math.IsInf(s.limit.Net, 1) {
		m.perNet = s.netPerTask(st, op, w)
	}
	per := m.per(op)
	for _, d := range s.bounded {
		l := component(m.load, d)
		if f := fitCount(l, per[d], component(s.limit, d), free); f < free {
			m.short[d] = free - f
			m.step[d] = l + per[d]*float64(f+1)
			m.fit = min(m.fit, f)
		}
	}
}

// fitCount is the largest j <= free with j == 0 or load+per*float64(j) <= limit,
// which is place's own arithmetic for j tasks of per-task load per. The
// quotient only seeds the two loops that then correct it with that
// expression, so its rounding can never refuse a count that fits.
func fitCount(load, per, limit float64, free int) int {
	if load+per*float64(free) <= limit {
		return free
	}
	if per <= 0 {
		return 0
	}
	j := free
	if q := (limit - load) / per; q < float64(free) {
		j = int(max(q, 0))
	}
	for j < free && load+per*float64(j+1) <= limit {
		j++
	}
	for j > 0 && load+per*float64(j) > limit {
		j--
	}
	return j
}

// refuseFloor lowers col's reject floor for a refused layer so that AutoTune
// skips a looser budget only if the lookahead would refuse the layer under it
// too. A worker's next-step loads in a dimension — load+per×j for its fit
// there < j <= free — are what the budget must admit for that fit to grow.
//
// If one dimension's fits alone fall short of the layer, by a deficit d, they
// grow by fewer than d — and the layer stays refused — while that dimension's
// budget stays below its d-th smallest next-step load, so its floor drops to
// that. Otherwise every dimension's floor drops to its smallest next-step
// load, below which no fit grows at all.
func (s *searcher) refuseFloor(st *state, op *opInfo, lf *layerFit, col *collector) {
	floor := [3]*float64{&col.rejectFloor.CPU, &col.rejectFloor.IO, &col.rejectFloor.Net}
	for _, d := range s.bounded {
		deficit := op.par - (st.freeTotal - lf.short[d])
		if deficit <= 0 {
			continue
		}
		// The deficit-th smallest is at least the smallest: select only when
		// the floor can move.
		if v := lf.step(d); v < *floor[d] {
			if deficit > 1 {
				v = s.nextLoad(op, lf, d, deficit, col)
			}
			*floor[d] = min(*floor[d], v)
		}
		return
	}
	for _, d := range s.bounded {
		*floor[d] = min(*floor[d], lf.step(d))
	}
}

// step is the smallest next-step load in dimension d over the workers.
func (lf *layerFit) step(d int) float64 {
	v := math.Inf(1)
	for w := range lf.memo {
		if s := lf.memo[w].step[d]; s < v {
			v = s
		}
	}
	return v
}

// nextLoad is the deficit-th smallest next-step load in dimension d over the
// workers, selected in ascending order in col's scratch buffer. A worker's
// next-step loads rise with j, so its scan stops at the first one that cannot
// enter the buffer.
func (s *searcher) nextLoad(op *opInfo, lf *layerFit, d, deficit int, col *collector) float64 {
	best := col.nextLoads[:0]
	for w := range lf.memo {
		m := &lf.memo[w]
		load, per := component(m.load, d), m.per(op)[d]
		for j := m.free - m.short[d] + 1; j <= m.free; j++ {
			v := load + per*float64(j)
			if len(best) == deficit {
				if v >= best[deficit-1] {
					break
				}
				best = best[:deficit-1]
			}
			i, _ := slices.BinarySearch(best, v)
			best = slices.Insert(best, i, v)
		}
	}
	col.nextLoads = best
	return best[deficit-1]
}

// boundedDims lists the dimensions (0 CPU, 1 IO, 2 Net) in which limit is
// finite: an infinite limit binds no worker, so the lookahead looks only at
// these.
func boundedDims(limit costmodel.Vector) []int {
	var dims []int
	for d := 0; d < 3; d++ {
		if !math.IsInf(component(limit, d), 1) {
			dims = append(dims, d)
		}
	}
	return dims
}

// component is v's value in dimension d: 0 CPU, 1 IO, 2 Net.
func component(v costmodel.Vector, d int) float64 {
	switch d {
	case 0:
		return v.CPU
	case 1:
		return v.IO
	}
	return v.Net
}
