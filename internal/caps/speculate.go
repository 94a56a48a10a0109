package caps

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"capsys/internal/costmodel"
)

// Exact parallel search (DESIGN.md §4, "Parallel search").
//
// The calling goroutine — the committer — runs the ordinary serial DFS. Once
// it has expanded specTune.activate nodes, it fixes a split layer: the
// shallowest layer below the root where it has completed a subtree of at
// least specTune.grain nodes. Helper goroutines then walk the layers above
// the split with the same layerFits/innerSearch/place code, from an empty
// state, and each takes a subtree root — an entry of the split layer that
// passed the lookahead — that lies after the committer's position in DFS
// order and that no other helper has taken (leaving to the committer the
// root it is about to reach). A helper searches its root with expandLayer
// into a collector of its own, whose memo table starts empty and whose memo
// operations and plans are logged in the order they happen.
//
// When the committer reaches a root a helper has searched, it adopts the
// helper's result in place of walking the subtree, but only when the serial
// walk would provably have produced the same one:
//
//   - Same root: the root is named by its counts above the split, and a
//     state is a function of its path (loads are restored by snapshot, never
//     by subtraction), so the helper's state is bitwise the committer's.
//   - Memo: every lookup the helper made gives the same answer against the
//     committer's table with the helper's earlier records applied (keys the
//     committer's table lacks evolve exactly as in the helper's empty one, so
//     only keys it holds are simulated; see agrees). The records are then
//     replayed into the committer's table in the order they were made.
//   - Node budget: the committer's count plus the helper's stays below
//     MaxNodes; otherwise the committer searches the subtree itself, from
//     its own count, and the cut lands on the same node.
//   - Merge: counters are summed, the reject floor merged by min, and the
//     logged plans offered in their order. A first-feasible plan stops the
//     committer exactly where the serial search stops.
//
// Otherwise the committer searches the subtree itself. It never blocks on a
// helper: a subtree still being searched is given up if the helper has done
// less than half a mean subtree, and raced otherwise — the committer walks
// it too and takes the helper's result if that comes first (see race). So
// plan, front and every Stats counter are those of the serial search at any
// Parallelism; only Elapsed and the caps.search.helper_* telemetry differ.

// specTuning holds the thresholds that decide when helpers join; the tests
// lower them so that helpers engage on small instances.
type specTuning struct {
	// activate is the number of nodes the committer expands before helpers
	// join: smaller searches stay serial.
	activate int64
	// grain is the size of the smallest completed subtree whose layer may
	// become the split layer.
	grain int64
	// anyProcs lets a search run more goroutines than GOMAXPROCS; yield
	// makes the committer yield its P at every root and a helper after every
	// subtree, so that they interleave even on one P; race makes the
	// committer race every unfinished subtree instead of giving up those a
	// helper has barely started, and check at every node whether it lost.
	anyProcs, yield, race bool
}

var specTune = specTuning{activate: 2048, grain: 256}

const (
	// committerPoll is the poll mask of a search goroutine that is not a
	// helper; a helper, and the committer while it races one, poll with
	// helperPoll, so that they notice within 256 nodes that a subtree is no
	// longer wanted or has been searched.
	committerPoll = 0xFFF
	helperPoll    = 0xFF
	// maxLoggedOffers and maxLoggedLoads bound the plans and the memo loads
	// (vectors) one helper subtree logs; a subtree with more is left to the
	// committer, and its helper stops.
	maxLoggedOffers = 1 << 10
	maxLoggedLoads  = 1 << 16
	// slotsPerHelper bounds the subtrees the helpers hold for the committer,
	// and so their logs' memory: a helper that far ahead waits.
	slotsPerHelper = 4
)

// helperCount is the number of helpers a search with the given Parallelism
// runs: goroutines in all never outnumber GOMAXPROCS, so the committer never
// waits for a P behind a busy helper, and one P runs no helper.
func helperCount(par int) int {
	procs := runtime.GOMAXPROCS(0)
	if par < 1 {
		par = procs
	}
	if !specTune.anyProcs {
		par = min(par, procs)
	}
	return par - 1
}

// specStats reports what the helpers of one search did. It is output only.
type specStats struct {
	// adopted subtrees and the nodes in them.
	adopted, adoptedNodes int64
	// Subtrees a helper took that the committer searched itself: the helper
	// had not got far enough (late), the committer's own walk finished first
	// or had already left its trace (raced), the helper was cut short (cut),
	// the subtree would straddle MaxNodes (budget), or the helper missed a
	// memo record the committer holds (memo).
	late, raced, cut, budget, memo int64
	// wasted is the helpers' nodes that were not adopted.
	wasted int64
}

func (st specStats) redone() int64 { return st.late + st.raced + st.cut + st.budget + st.memo }

// speculation is the committer's side of a parallel search.
type speculation struct {
	s       *searcher
	helpers int
	// split is the layer whose entries are the subtree roots (-1 until the
	// helpers join); big is the shallowest layer with a completed subtree of
	// at least grain nodes (-1 if none yet), bigSize that subtree's size.
	split, big int
	bigSize    int64
	// rootNodes/roots is the mean subtree size the committer has seen.
	rootNodes, roots int64
	keyBuf           []byte
	// mark is the committer's effort at the root it races a helper for, and
	// lostRace is set when the helper won.
	mark struct {
		effort
		records int64
	}
	lostRace bool
	stats    specStats

	wg   sync.WaitGroup
	done atomic.Bool // the commit has ended: helpers stop

	mu sync.Mutex
	// freed signals (on mu) that slots shrank or the commit ended.
	freed *sync.Cond
	// pos is the committer's current root (its counts above the split) and
	// base its node count there.
	pos  [][]int
	base int64
	// slots holds the subtrees helpers have taken, by root key.
	slots map[string]*subtree
	ended bool
	// spent is the helpers' expanded nodes, added as each exits.
	spent int64
}

func newSpeculation(s *searcher, helpers int) *speculation {
	sp := &speculation{s: s, helpers: helpers, split: -1, big: -1, slots: make(map[string]*subtree)}
	sp.freed = sync.NewCond(&sp.mu)
	return sp
}

// subtree is one root a helper took, and its result once ready is closed.
type subtree struct {
	root     [][]int // the root's counts above the split
	ready    chan struct{}
	abandon  atomic.Bool  // the committer no longer wants the result
	progress atomic.Int64 // the helper's nodes so far, published at each poll

	status subStatus
	effort
	// memoKeys is the number of keys in the helper's table at the end; ops
	// is its memo log, whose keys and loads are stored in keys and loads.
	memoKeys int
	ops      []memoOp
	keys     []byte
	loads    []costmodel.Vector
	offers   []frontEntry
	overflow bool
}

type subStatus int

const (
	subCut      subStatus = iota // stopped early: the result is partial
	subComplete                  // explored to completion
	subFound                     // a first-feasible plan ends it
	subCapped                    // reached the helper's share of MaxNodes
)

// memoOp is one logged memo lookup (with the answer the helper saw) or
// record; the key is keys[from:to] and the loads start at loads[at].
type memoOp struct {
	from, to, at int
	hit, record  bool
}

func (t *subtree) logMemo(c *collector, key []byte, loads []costmodel.Vector, hit, record bool) {
	if len(t.loads) >= maxLoggedLoads {
		t.overflow, c.stopped = true, true
		return
	}
	t.ops = append(t.ops, memoOp{from: len(t.keys), to: len(t.keys) + len(key), at: len(t.loads), hit: hit, record: record})
	t.keys = append(t.keys, key...)
	t.loads = append(t.loads, loads...)
}

func (t *subtree) logOffer(c *collector, counts [][]int, cost costmodel.Vector) {
	if len(t.offers) == maxLoggedOffers {
		t.overflow, c.stopped = true, true
		return
	}
	t.offers = append(t.offers, frontEntry{counts: snapshotCounts(counts), cost: cost})
}

// halted publishes the helper's progress and reports whether the committer
// gave the root up.
func (t *subtree) halted(nodes int64) bool {
	t.progress.Store(nodes)
	return t.abandon.Load()
}

func (t *subtree) isReady() bool {
	select {
	case <-t.ready:
		return true
	default:
		return false
	}
}

// rootKey names the root st stands at: its counts above the split.
func (sp *speculation) rootKey(b []byte, st *state) []byte {
	b = b[:0]
	for _, row := range st.counts[:sp.split] {
		for _, v := range row {
			b = appendCount(b, v)
		}
	}
	return b
}

// ahead reports whether the root with the given counts comes after the
// committer's position in DFS order. At the first count where the two differ
// they share the path above it, so the inner search offered both: the warm
// seed first, then larger counts before smaller ones.
func (sp *speculation) ahead(counts [][]int) bool {
	warm := sp.s.warm
	for l, row := range sp.pos {
		for w, p := range row {
			c := counts[l][w]
			if c == p {
				continue
			}
			if warm != nil {
				if p == warm[l][w] {
					return true
				}
				if c == warm[l][w] {
					return false
				}
			}
			return p > c
		}
	}
	return false
}

// observe notes a completed subtree of the committer and, once the committer
// has expanded enough nodes and seen a large enough subtree, fixes the split
// layer and starts the helpers. It waits for a completion at or below the
// split, so the committer's position is a root of it.
func (sp *speculation) observe(st *state, layer int, size int64, col *collector) {
	if col.stopped {
		return
	}
	if layer >= 1 && size >= specTune.grain && (sp.big < 0 || layer < sp.big) {
		sp.big, sp.bigSize = layer, size
	}
	if sp.big < 0 || layer < sp.big || col.nodes < specTune.activate {
		return
	}
	sp.split = sp.big
	sp.rootNodes, sp.roots = sp.bigSize, 1
	sp.pos = snapshotCounts(st.counts[:sp.split])
	sp.base = col.nodes
	sp.wg.Add(sp.helpers)
	for i := 0; i < sp.helpers; i++ {
		go sp.help()
	}
}

// finish ends the commit: it stops the helpers and waits for them.
func (sp *speculation) finish() specStats {
	if sp.split < 0 {
		return sp.stats
	}
	sp.mu.Lock()
	sp.ended = true
	sp.freed.Broadcast()
	sp.mu.Unlock()
	sp.done.Store(true)
	sp.wg.Wait()
	sp.stats.wasted = sp.spent - sp.stats.adoptedNodes
	return sp.stats
}

// commit is the committer at a root of the split layer: it adopts a helper's
// result for the root, or searches the root itself.
func (sp *speculation) commit(st *state, col *collector) bool {
	if specTune.yield {
		runtime.Gosched()
	}
	sp.keyBuf = sp.rootKey(sp.keyBuf, st)
	sp.mu.Lock()
	t := sp.slots[string(sp.keyBuf)]
	if t != nil {
		delete(sp.slots, string(sp.keyBuf))
		sp.freed.Signal()
	}
	for l, row := range sp.pos {
		copy(row, st.counts[l])
	}
	sp.base = col.nodes
	sp.mu.Unlock()
	// Adopted subtrees add their nodes in one step, so the periodic poll in
	// shouldStop may skip past them: sample the context at every root.
	if col.poll() {
		return false
	}
	before := col.nodes
	complete := sp.commitRoot(st, t, col)
	sp.rootNodes += col.nodes - before
	sp.roots++
	return complete
}

// commitRoot adopts t if it is done and adoptable, races it if the helper
// has done at least half a mean subtree, and otherwise gives it up and
// searches the root alone.
func (sp *speculation) commitRoot(st *state, t *subtree, col *collector) bool {
	switch {
	case t == nil:
	case t.isReady():
		if sp.adoptable(t, col.nodes, col) {
			return sp.adopt(t, col)
		}
	case specTune.race || 2*t.progress.Load() >= sp.rootNodes/sp.roots:
		return sp.race(st, t, col)
	default:
		t.abandon.Store(true)
		sp.stats.late++
	}
	return sp.s.expandLayer(st, sp.split, col)
}

// race searches the root while the helper finishes it, and takes whichever
// result comes first. The committer's walk is the serial one, so the
// helper's result may replace it only while that walk has left no trace
// the result would not reproduce — no memo record, no plan — and only its
// effort counters are rolled back (see lost).
func (sp *speculation) race(st *state, t *subtree, col *collector) bool {
	sp.mark.effort, sp.mark.records = col.effort, col.records
	col.race, col.pollMask = t, helperPoll
	if specTune.race {
		col.pollMask = 0
	}
	complete := sp.s.expandLayer(st, sp.split, col)
	col.pollMask = committerPoll
	if sp.lostRace {
		sp.lostRace, col.stopped = false, false
		col.effort = sp.mark.effort
		return sp.adopt(t, col)
	}
	if col.race != nil {
		col.race = nil
		t.abandon.Store(true)
		sp.stats.raced++
	}
	return complete
}

// lost reports, from the committer's poll, whether the helper it races has
// finished with a result the committer can adopt in place of its own walk.
func (sp *speculation) lost(col *collector) bool {
	t := col.race
	if !t.isReady() {
		return false
	}
	col.race = nil
	if col.records != sp.mark.records || col.plans != sp.mark.plans {
		sp.stats.raced++
		return false
	}
	sp.lostRace = sp.adoptable(t, sp.mark.nodes, col)
	return sp.lostRace
}

// adoptable reports whether the serial walk of t's root, started at the
// committer's count nodes, would produce t's result (see the file comment).
func (sp *speculation) adoptable(t *subtree, nodes int64, col *collector) bool {
	switch {
	case t.status == subCut:
		sp.stats.cut++
	case t.status == subCapped || nodes+t.nodes >= col.nodeCap:
		sp.stats.budget++
	case col.memo != nil && !col.memo.agrees(t, sp.s.numWorkers):
		sp.stats.memo++
	default:
		return true
	}
	return false
}

// adopt merges an adoptable subtree into the committer's collector and
// returns what the serial walk of its root would have returned.
func (sp *speculation) adopt(t *subtree, col *collector) bool {
	if col.memo != nil {
		col.memo.replay(t, sp.s.numWorkers)
	}
	col.add(&t.effort)
	for _, fe := range t.offers {
		col.offer(fe.counts, fe.cost)
	}
	if t.status == subFound {
		col.stopped = true
	}
	sp.stats.adopted++
	sp.stats.adoptedNodes += t.nodes
	return t.status == subComplete
}

// help is one helper goroutine: it walks the layers above the split and
// searches the roots it takes, until the walk ends or the commit does.
func (sp *speculation) help() {
	defer sp.wg.Done()
	s := sp.s
	up, sub := newCollector(s), newCollector(s)
	up.memo, up.nodeCap = nil, math.MaxInt64
	up.pollMask, sub.pollMask = helperPoll, helperPoll
	up.halt, sub.halt = &sp.done, &sp.done
	st := newState(len(s.ops), s.numWorkers, s.slots)
	h := &helper{c: sub}
	var walk func(layer int) bool
	walk = func(layer int) bool {
		if !s.layerFits(st, layer, up) {
			return true
		}
		if layer == sp.split {
			return sp.take(st, h)
		}
		return s.innerSearch(st, layer, 0, s.ops[layer].par, -1, st.freeTotal-st.free[0], up, func() bool {
			return walk(layer + 1)
		})
	}
	walk(0)
	sp.mu.Lock()
	sp.spent += up.nodes + h.spent
	sp.mu.Unlock()
}

// helper is a helper goroutine's own state.
type helper struct {
	c     *collector // the collector its subtrees are searched into
	key   []byte
	spent int64 // nodes searched in subtrees
	// passed holds the last roots the walk has passed that may lie ahead of
	// the committer: taken ones with their subtree, and those it left to the
	// committer. truncated is set when older ones were dropped to bound it.
	passed    []passedRoot
	truncated bool
}

// maxPassed bounds a helper's passed roots: with more than this many roots
// between the committer and a helper, the committer is not about to reach
// the helper's next root anyway.
const maxPassed = 16

type passedRoot struct {
	counts [][]int
	t      *subtree // nil: left to the committer
}

// next reports whether the committer will reach the root after the passed
// ones as soon as it leaves its own: every root between is taken and done.
// It forgets the passed roots the committer has reached — a prefix, as both
// move forward in DFS order. The caller holds sp.mu.
func (h *helper) next(sp *speculation) bool {
	i := 0
	for i < len(h.passed) && !sp.ahead(h.passed[i].counts) {
		i++
	}
	if i > 0 {
		// The committer is past a kept root, so past every dropped one too.
		h.passed, h.truncated = h.passed[:copy(h.passed, h.passed[i:])], false
	}
	if h.truncated {
		return false
	}
	for _, r := range h.passed {
		if r.t == nil || !r.t.isReady() {
			return false
		}
	}
	return true
}

// pass appends the root st stands at to the passed roots.
func (h *helper) pass(st *state, split int, t *subtree) {
	if len(h.passed) == maxPassed {
		h.passed, h.truncated = h.passed[:copy(h.passed, h.passed[1:])], true
	}
	h.passed = append(h.passed, passedRoot{counts: snapshotCounts(st.counts[:split]), t: t})
}

// take searches the root st stands at into a new subtree, unless the
// committer is past it, another helper has it, or the committer will reach
// it next: a helper that took that root would barely have started when the
// committer arrives, so it leaves it and takes the one after. It reports
// whether the walk should go on to later roots.
func (sp *speculation) take(st *state, h *helper) bool {
	t, base, more := sp.claim(st, h)
	if t == nil {
		return more
	}
	c := h.c

	c.effort, c.stopped, c.sub = effort{rejectFloor: Unbounded}, false, t
	if c.s.maxNodes > 0 {
		// The committer's count at the root is at least base, so a subtree
		// past this cap could never be adopted.
		c.nodeCap = c.s.maxNodes - base
	}
	if c.memo != nil {
		c.memo.reset()
	}
	complete := sp.s.expandLayer(st, sp.split, c)
	switch {
	case c.plans > 0 && sp.s.mode == FirstFeasible:
		t.status = subFound
	case complete && !t.overflow:
		t.status = subComplete
	case c.nodes >= c.nodeCap:
		t.status = subCapped
	}
	t.effort = c.effort
	if c.memo != nil {
		t.memoKeys = len(c.memo.entries)
	}
	c.sub = nil
	h.spent += c.nodes
	close(t.ready)
	if specTune.yield {
		runtime.Gosched()
	}
	// A plan or the node budget ends the commit at this root at the latest;
	// after an overflow, later roots would most likely overflow too.
	return t.status != subFound && t.status != subCapped && !t.overflow && !c.halt.Load()
}

// purge drops the slots of roots the committer has passed without reaching
// them (a memo hit above the split skipped them) and returns how many it
// dropped. The caller holds sp.mu.
func (sp *speculation) purge() int {
	n := 0
	//capslint:allow determinism each slot is dropped or kept on its own; the order changes nothing
	for k, t := range sp.slots {
		if !sp.ahead(t.root) {
			t.abandon.Store(true)
			delete(sp.slots, k)
			n++
		}
	}
	return n
}

// claim decides take's question under sp.mu: it returns the new subtree and
// the committer's count, or nil and whether the walk should go on.
func (sp *speculation) claim(st *state, h *helper) (t *subtree, base int64, more bool) {
	h.key = sp.rootKey(h.key, st)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for !sp.ended && sp.ahead(st.counts) && len(sp.slots) >= slotsPerHelper*sp.helpers && sp.purge() == 0 {
		sp.freed.Wait()
	}
	if sp.ended || !sp.ahead(st.counts) {
		return nil, 0, !sp.ended
	}
	t = sp.slots[string(h.key)]
	took := t == nil && !h.next(sp)
	if took {
		t = &subtree{root: snapshotCounts(st.counts[:sp.split]), ready: make(chan struct{})}
		sp.slots[string(h.key)] = t
	}
	h.pass(st, sp.split, t)
	if !took {
		return nil, 0, true
	}
	return t, sp.base, true
}

// agrees reports whether every memo lookup in t's log gives the answer the
// helper saw against m, the committer's table, with the log's earlier
// records applied. The helper's table started empty, so a key m lacks
// evolves exactly as it did there — provided m has room for all the
// helper's keys — and only the keys m holds are simulated, on copies of
// their entries.
func (m *memoTable) agrees(t *subtree, workers int) bool {
	if len(m.entries)+t.memoKeys > memoMaxKeys {
		return false
	}
	var sim map[string]*memoEntry
	for i := range t.ops {
		op := &t.ops[i]
		key := t.keys[op.from:op.to]
		e, copied := sim[string(key)]
		if !copied {
			if e = m.entries[string(key)]; e == nil {
				continue
			}
		}
		loads := t.loads[op.at : op.at+workers]
		if !op.record {
			if e.hits(loads) != op.hit {
				return false
			}
			continue
		}
		if !copied {
			if sim == nil {
				sim = make(map[string]*memoEntry)
			}
			cp := *e
			e = &cp
			sim[string(key)] = e
		}
		if e.drop(loads) != nil || e.n < memoMaxPerKey {
			e.snaps[e.n] = loads
			e.n++
		}
	}
	return true
}

// replay applies the records of t's log to m in the order they were made.
func (m *memoTable) replay(t *subtree, workers int) {
	for i := range t.ops {
		if op := &t.ops[i]; op.record {
			m.record(t.keys[op.from:op.to], t.loads[op.at:op.at+workers])
		}
	}
}
