package caps

import (
	"context"
	"math"
	"testing"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
)

// A layer whose tasks cannot fit on the workers' free slots and budgets is
// refused at its entry: no node is expanded, the refusal is counted, and the
// reject floor is the smallest budget under which the layer would fit — at
// the floor it fits, one ulp below it it is refused again.
func TestLayerLookaheadRefuses(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name  string
		par   int
		free  []int
		loads []costmodel.Vector
		usage costmodel.Vector
		limit costmodel.Vector
		floor costmodel.Vector
	}{
		{
			// Worker 0 is bound by its one free slot, worker 1 by CPU (one
			// task to 2, two to 3 > 2.5): 2 of 3 tasks fit, and the second
			// task on worker 1 needs a budget of 3.
			name:  "slots and cpu",
			par:   3,
			free:  []int{1, 4},
			loads: []costmodel.Vector{{}, {CPU: 1}},
			usage: costmodel.Vector{CPU: 1},
			limit: costmodel.Vector{CPU: 2.5, IO: inf, Net: inf},
			floor: costmodel.Vector{CPU: 3, IO: inf, Net: inf},
		},
		{
			// One task fits per worker, two short: the floor is the second
			// smallest next-step load (2, 2.25, 2.5, 3, ...), not the first.
			name:  "deficit of two",
			par:   5,
			free:  []int{4, 4, 4},
			loads: []costmodel.Vector{{}, {CPU: 0.25}, {CPU: 0.5}},
			usage: costmodel.Vector{CPU: 1},
			limit: costmodel.Vector{CPU: 1.6, IO: inf, Net: inf},
			floor: costmodel.Vector{CPU: 2.25, IO: inf, Net: inf},
		},
		{
			// Each dimension alone fits 3 tasks, together only 2: no
			// dimension falls short alone, so both floors drop to their
			// first next-step load.
			name:  "cpu and io together",
			par:   3,
			free:  []int{4, 4},
			loads: []costmodel.Vector{{CPU: 1}, {IO: 1}},
			usage: costmodel.Vector{CPU: 1, IO: 1},
			limit: costmodel.Vector{CPU: 2.5, IO: 2.5, Net: inf},
			floor: costmodel.Vector{CPU: 3, IO: 3, Net: inf},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, st := lookaheadCase(t, tc.par, tc.free, tc.loads, tc.usage)
			setLimit(s, tc.limit)
			col := newCollector(s)
			if !s.searchLayer(st, 0, col) || col.nodes != 0 || col.layerPrunes != 1 || col.plans != 0 {
				t.Fatalf("searchLayer: %d nodes, %d refused layers, %d plans; want the layer refused with no node expanded",
					col.nodes, col.layerPrunes, col.plans)
			}
			if col.rejectFloor != tc.floor {
				t.Errorf("reject floor %v, want %v", col.rejectFloor, tc.floor)
			}
			under := func(floor, limit float64) float64 {
				if math.IsInf(floor, 1) {
					return limit
				}
				return math.Nextafter(floor, 0)
			}
			below := costmodel.Vector{
				CPU: under(tc.floor.CPU, tc.limit.CPU),
				IO:  under(tc.floor.IO, tc.limit.IO),
				Net: under(tc.floor.Net, tc.limit.Net),
			}
			for _, at := range []struct {
				limit costmodel.Vector
				fits  bool
			}{{tc.floor, true}, {below, false}} {
				setLimit(s, at.limit)
				if got := s.layerFits(st, 0, newCollector(s)); got != at.fits {
					t.Errorf("limit %v: layerFits %v, want %v", at.limit, got, at.fits)
				}
			}
		})
	}
}

// lookaheadCase is one operator of par tasks on len(free) workers, with its
// per-task usage and a state whose workers have the given free slots and
// loads.
func lookaheadCase(t *testing.T, par int, free []int, loads []costmodel.Vector, usage costmodel.Vector) (*searcher, *state) {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	if err := g.AddOperator(dataflow.Operator{ID: "op", Kind: dataflow.KindSource, Parallelism: par, Selectivity: 1}); err != nil {
		t.Fatal(err)
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Homogeneous(len(free), 4, 4, 1e6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := dataflow.PropagateRates(g, map[dataflow.OperatorID]float64{"op": 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSearcher(context.Background(), phys, c, costmodel.FromRates(g, rates), Options{Alpha: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	s.ops[0].usage = usage
	st := newState(1, len(free), 4)
	st.freeTotal = 0
	for w := range free {
		st.free[w], st.loads[w] = free[w], loads[w]
		st.freeTotal += free[w]
	}
	return s, st
}

// setLimit gives s the load limit l, as newSearcher derives it from α.
func setLimit(s *searcher, l costmodel.Vector) {
	s.limit, s.bounded = l, boundedDims(l)
}
