package caps

import (
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
)

// This file holds the incremental evaluation machinery of the search: the
// mutable DFS state with its O(1)-per-step bookkeeping, the from-scratch
// reference evaluator used by the ScratchEval ablation mode (and by the
// equivalence property tests), and the warm-start seed construction.
//
// The seed implementation recomputed three quantities with per-node loops
// over the whole cluster: the remaining capacity of workers after the current
// one (O(workers) per node), the network interactions with every worker of
// each adjacent layer (O(workers) per adjacent layer), and the bottleneck
// load at every leaf (O(workers) per leaf). All three are now maintained
// incrementally:
//
//   - freeTotal tracks the cluster's total free slots, so the capacity lower
//     bound threads down the inner search as a running value instead of a
//     per-node suffix sum.
//   - active[layer] lists only the workers that actually hold tasks of a
//     layer, so network deltas touch O(occupied) workers, not O(workers).
//   - max tracks the element-wise bottleneck load. Loads grow monotonically
//     as tasks are placed, so the running maximum is exact along the DFS
//     path; each place saves the previous maximum and its undo restores it,
//     making leaf cost evaluation O(1) instead of O(workers).

// state is the mutable per-goroutine DFS state.
type state struct {
	counts [][]int // [layer][worker] task counts
	free   []int   // remaining slots per worker
	loads  []costmodel.Vector
	placed []int // per layer: tasks placed so far (== par when layer done)

	// freeTotal is the sum of free, maintained on place/undo.
	freeTotal int
	// max is the running element-wise maximum of loads (exact, because loads
	// only grow as tasks are added; see place).
	max costmodel.Vector
	// active[layer] holds the workers with counts[layer][w] > 0 in placement
	// order. The DFS places and unplaces in strict LIFO order within a layer,
	// so maintenance is push/pop at the end.
	active [][]int

	// undoW/undoPrev form the shared LIFO undo log of (worker, previous
	// load) snapshots. place pushes the touched workers, unplace pops back
	// to the recorded offset; the buffers are reused across the whole
	// search, so placements allocate nothing after warm-up.
	undoW    []int
	undoPrev []costmodel.Vector

	// keyBufs[layer] are scratch buffers for memoKey, reused across boundary
	// visits so key construction allocates nothing.
	keyBufs [][]byte
}

func newState(numLayers, numWorkers, slots int) *state {
	st := &state{
		counts: make([][]int, numLayers),
		free:   make([]int, numWorkers),
		loads:  make([]costmodel.Vector, numWorkers),
		placed: make([]int, numLayers),
		active: make([][]int, numLayers),
	}
	for i := range st.counts {
		st.counts[i] = make([]int, numWorkers)
	}
	for i := range st.free {
		st.free[i] = slots
	}
	st.freeTotal = numWorkers * slots
	return st
}

func (st *state) clone() *state {
	c := &state{
		counts:    make([][]int, len(st.counts)),
		free:      append([]int(nil), st.free...),
		loads:     append([]costmodel.Vector(nil), st.loads...),
		placed:    append([]int(nil), st.placed...),
		freeTotal: st.freeTotal,
		max:       st.max,
		active:    make([][]int, len(st.active)),
	}
	for i := range st.counts {
		c.counts[i] = append([]int(nil), st.counts[i]...)
	}
	for i := range st.active {
		c.active[i] = append([]int(nil), st.active[i]...)
	}
	// The undo log and memo-key buffers are deliberately not copied: pending
	// undo entries belong to the cloner's own placements, which the clone
	// never unwinds (parallel consumers only search below the shipped
	// prefix), and the key buffers are pure scratch space.
	return c
}

// recomputeLoads rebuilds every worker's load vector from the counts matrix
// alone, charging — exactly like the incremental path — CPU and state access
// per placed task and network per cross-worker pair of placed adjacent tasks.
// It is the reference evaluator: the ScratchEval mode calls it on every
// placement step, and the property tests compare its output against the
// incrementally maintained loads after arbitrary place/undo sequences.
func (s *searcher) recomputeLoads(st *state, out []costmodel.Vector) {
	for i := range out {
		out[i] = costmodel.Vector{}
	}
	for l := range s.ops {
		op := &s.ops[l]
		for w := 0; w < s.numWorkers; w++ {
			cnt := st.counts[l][w]
			if cnt == 0 {
				continue
			}
			fc := float64(cnt)
			out[w].CPU += op.usage.CPU * fc
			out[w].IO += op.usage.IO * fc
		}
		if op.usage.Net == 0 || op.outDeg == 0 {
			continue
		}
		perLink := op.usage.Net / float64(op.outDeg)
		for w := 0; w < s.numWorkers; w++ {
			cnt := st.counts[l][w]
			if cnt == 0 {
				continue
			}
			remote := 0
			for _, dl := range op.downstream {
				remote += st.placed[dl] - st.counts[dl][w]
			}
			if remote > 0 {
				out[w].Net += perLink * float64(cnt) * float64(remote)
			}
		}
	}
}

// warmCounts converts a previous placement plan into per-layer/per-worker
// count hints aligned with the current exploration order. Operators absent
// from the current graph and workers outside the current cluster are dropped,
// so a plan from a rescaled graph or a shrunken cluster degrades to a partial
// hint instead of failing. Returns nil when nothing maps.
func warmCounts(plan *dataflow.Plan, ops []opInfo, numWorkers int) [][]int {
	if plan == nil {
		return nil
	}
	wm := make([][]int, len(ops))
	for i := range wm {
		wm[i] = make([]int, numWorkers)
	}
	any := false
	plan.Each(func(t dataflow.TaskID, w int) {
		if w < 0 || w >= numWorkers {
			return
		}
		// Linear scan: the operator list is small and this avoids building a
		// lookup map on every warm-started search.
		for l := range ops {
			if ops[l].id == t.Op {
				wm[l][w]++
				any = true
				break
			}
		}
	})
	if !any {
		return nil
	}
	return wm
}
