package caps

import "capsys/internal/costmodel"

// Transposition-style memoization of dominated partial states (the prune the
// search applies at layer boundaries).
//
// When the search finishes a layer it stands at an "interface state": the
// remaining layers interact with the completed prefix only through (a) the
// per-worker free-slot vector, (b) the per-worker counts of prefix layers
// adjacent to a remaining layer (the network interface), and (c) the
// equality pattern of full per-worker histories (which drives duplicate
// elimination for the suffix). Prefix layers with no edge into the suffix can
// be permuted freely without changing any of the three, so many distinct
// prefixes collapse onto the same interface key — they differ only in the
// loads they have accumulated.
//
// Loads grow monotonically as tasks are placed, and the load added by any
// suffix completion is a function of the interface alone. So if one prefix
// with loads L was fully explored and its entire subtree violated the
// threshold budget (zero satisfying plans), any later prefix with the same
// interface key and loads >= L element-wise is pruned outright: every one of
// its completions is over budget too. Floating-point addition is monotone,
// so the comparison needs no epsilon. The prune skips no leaves — subtrees
// recorded here contain none — which keeps the satisfying-plan count, the
// Pareto front and the selected plan bit-identical with and without the memo
// (see TestMemoEquivalenceProperty).
//
// The table is per search goroutine (no synchronization): a helper's
// records reach the committer's table only through replay (speculate.go).
// It is bounded: at most memoMaxKeys interface keys, each retaining the
// memoMaxPerKey least restrictive load snapshots.
//
// Boundaries are visited far more often than they prune, so recording is
// kept cheap: entries sit behind pointers and are updated in place, and both
// entries and snapshots are carved from chunks (a dropped snapshot's slot is
// reused by the one replacing it). Recording under a known key allocates
// nothing; a new key allocates its string once.

const (
	memoMaxKeys   = 1 << 16
	memoMaxPerKey = 4
	memoChunk     = 256 // most entries, or snapshots, per chunk
)

type memoTable struct {
	entries map[string]*memoEntry
	// arena and slab are the unused tails of the current snapshot and entry
	// chunks.
	arena []costmodel.Vector
	slab  []memoEntry
}

type memoEntry struct {
	snaps [memoMaxPerKey][]costmodel.Vector
	n     int
}

func newMemoTable() *memoTable {
	return &memoTable{entries: make(map[string]*memoEntry)}
}

// grow is the size of a new chunk, in entries or in snapshots: as many as the
// table has keys, from 16 up to memoChunk, so a small search allocates little
// and the chunks grow with the table.
func (m *memoTable) grow() int {
	return min(max(len(m.entries), 16), memoChunk)
}

// reset empties the table for a new subtree; its chunks' unused tails are
// kept.
func (m *memoTable) reset() {
	clear(m.entries)
}

// loadsLeq reports whether a <= b element-wise in every dimension of every
// worker.
func loadsLeq(a, b []costmodel.Vector) bool {
	for i := range a {
		if a[i].CPU > b[i].CPU || a[i].IO > b[i].IO || a[i].Net > b[i].Net {
			return false
		}
	}
	return true
}

// hit reports whether a recorded no-plan state dominates the current loads.
// The []byte key avoids a string allocation: Go elides the conversion in a
// direct map index expression.
func (m *memoTable) hit(key []byte, loads []costmodel.Vector) bool {
	if e := m.entries[string(key)]; e != nil {
		return e.hits(loads)
	}
	return false
}

// hits reports whether a snapshot of e dominates loads.
func (e *memoEntry) hits(loads []costmodel.Vector) bool {
	for _, snap := range e.snaps[:e.n] {
		if loadsLeq(snap, loads) {
			return true
		}
	}
	return false
}

// drop removes the snapshots of e that loads renders redundant (a smaller
// snapshot prunes a superset of states) and returns the storage of one of
// them, or nil if none was dropped.
func (e *memoEntry) drop(loads []costmodel.Vector) []costmodel.Vector {
	var slot []costmodel.Vector
	kept := 0
	for _, snap := range e.snaps[:e.n] {
		if loadsLeq(loads, snap) {
			slot = snap
		} else {
			e.snaps[kept] = snap
			kept++
		}
	}
	e.n = kept
	return slot
}

// record stores loads as a fully-explored no-plan state for key, dropping
// stored entries the new one renders redundant.
func (m *memoTable) record(key []byte, loads []costmodel.Vector) {
	e := m.entries[string(key)]
	if e == nil {
		if len(m.entries) >= memoMaxKeys {
			return
		}
		if len(m.slab) == 0 {
			m.slab = make([]memoEntry, m.grow())
		}
		e, m.slab = &m.slab[0], m.slab[1:]
		m.entries[string(key)] = e
	}
	slot := e.drop(loads)
	if slot == nil {
		if e.n >= memoMaxPerKey {
			return
		}
		if len(m.arena) < len(loads) {
			m.arena = make([]costmodel.Vector, m.grow()*len(loads))
		}
		slot, m.arena = m.arena[:len(loads):len(loads)], m.arena[len(loads):]
	}
	copy(slot, loads)
	e.snaps[e.n] = slot
	e.n++
}

// memoKey renders the interface state entering layer: the counts of prefix
// layers still adjacent to the suffix, the free-slot vector, and the
// worker-partition signature over full prefix histories. Layers whose prefix
// is fully interface-relevant never produce repeat keys, so the searcher
// precomputes memoAt to skip them (see buildMemoPlan).
//
// The key is binary and exact — appendCount per field, the field count fixed
// by the layer — never a hash: two states that collided would share prunes
// that are sound for only one of them.
//
// The key is built into a per-layer buffer owned by the state, so boundary
// visits allocate nothing; the returned slice stays valid across the layer's
// subtree exploration because deeper layers write only their own buffers.
func (s *searcher) memoKey(st *state, layer int) []byte {
	if st.keyBufs == nil {
		st.keyBufs = make([][]byte, len(s.ops))
	}
	b := appendCount(st.keyBufs[layer][:0], layer)
	for _, l := range s.relevant[layer] {
		for _, c := range st.counts[l] {
			b = appendCount(b, c)
		}
	}
	for _, f := range st.free {
		b = appendCount(b, f)
	}
	// Partition signature: one byte per worker, set when its history equals
	// its left neighbour's — at a boundary that is the prefix history, later
	// layers being empty. That is all duplicate elimination reads, and it
	// names the same partition as class ids would: canonical non-increasing
	// counts keep workers with identical histories contiguous.
	if !s.noDupElim {
		for w := 1; w < s.numWorkers; w++ {
			same := byte(0)
			if s.equivalent(st, layer, w) {
				same = 1
			}
			b = append(b, same)
		}
	}
	st.keyBufs[layer] = b
	return b
}

// buildMemoPlan computes, per layer, which prefix layers remain
// interface-relevant (adjacent to any layer >= k) and whether memoization at
// that boundary can ever pay off: if every prefix layer is part of the
// interface, the key pins the whole prefix and each key occurs exactly once.
func (s *searcher) buildMemoPlan() {
	n := len(s.ops)
	s.relevant = make([][]int, n)
	s.memoAt = make([]bool, n)
	maxAdj := make([]int, n)
	for l := range s.ops {
		maxAdj[l] = -1
		for _, m := range s.ops[l].upstream {
			if m > maxAdj[l] {
				maxAdj[l] = m
			}
		}
		for _, m := range s.ops[l].downstream {
			if m > maxAdj[l] {
				maxAdj[l] = m
			}
		}
	}
	for k := 1; k < n; k++ {
		for l := 0; l < k; l++ {
			if maxAdj[l] >= k {
				s.relevant[k] = append(s.relevant[k], l)
			}
		}
		s.memoAt[k] = len(s.relevant[k]) < k
	}
}
