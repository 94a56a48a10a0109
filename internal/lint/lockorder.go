package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// lockorderAnalyzer reports cyclic lock-acquisition orders — the static
// shape of the wire-credit fan-in deadlock: goroutine 1 takes A then B,
// goroutine 2 takes B then A, and under contention both block forever. The
// analysis is whole-program:
//
//   - every Lock/RLock site is classified into a lock class — the declaring
//     struct's field ("engine.Meter.mu") or a package-level variable
//     ("caps.planMu") — so distinct instances of one mutex field share a
//     class and cross-package orders line up;
//   - a forward may-analysis over each function's CFG computes which
//     classes can be held at every statement (defer Unlock keeps the lock
//     held to the end of the function, explicit Unlock releases it on that
//     path);
//   - held sets propagate through the call graph: calling f while holding A
//     adds edges from A to every class f may transitively acquire. Calls
//     launched on a new goroutine are excluded — the new goroutine does not
//     inherit the caller's held locks;
//   - functions following the `…Locked` caller-holds convention enter with
//     their guarded fields' mutex classes already held, so the convention
//     the locks analyzer enforces also contributes ordering edges.
//
// Edges between two instances of the same class are skipped (same-class
// ordering needs a runtime tie-break the linter cannot see), and a cycle is
// reported once per participating acquisition edge so each site can carry
// its own //capslint:allow.
var lockorderAnalyzer = &Analyzer{
	Name:       "lockorder",
	RunProgram: runLockOrder,
}

// lockEdge is one ordered acquisition: to was acquired while from was held.
type lockEdge struct{ from, to string }

// lockEdgeSite is one program point creating an edge.
type lockEdgeSite struct {
	p    *Package
	node ast.Node
	via  string // callee name for interprocedural edges, "" for direct
}

type lockOrder struct {
	prog *Program
	// acquires is the transitive may-acquire summary per declared function.
	acquires map[*types.Func]map[string]bool
	// entryHeld maps `…Locked` functions to the classes their callers hold.
	entryHeld map[*types.Func]map[string]bool
	// goLaunched marks function literals started by a go statement.
	goLaunched map[*ast.FuncLit]bool
	// edges accumulates acquisition edges with provenance.
	edges map[lockEdge][]lockEdgeSite
}

func runLockOrder(prog *Program) []Diagnostic {
	lo := &lockOrder{
		prog:       prog,
		acquires:   make(map[*types.Func]map[string]bool),
		entryHeld:  make(map[*types.Func]map[string]bool),
		goLaunched: make(map[*ast.FuncLit]bool),
		edges:      make(map[lockEdge][]lockEdgeSite),
	}
	lo.collectGoLaunched()
	lo.buildSummaries()
	lo.collectEdges()
	return lo.report()
}

// collectGoLaunched records every `go func(){…}()` literal: their bodies
// run on a fresh goroutine and must not inherit the spawner's held set.
func (lo *lockOrder) collectGoLaunched() {
	for _, p := range lo.prog.Packages {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					if lit, isLit := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); isLit {
						lo.goLaunched[lit] = true
					}
				}
				return true
			})
		}
	}
}

// buildSummaries computes direct acquisitions, entry-held sets for the
// `…Locked` convention, and the transitive acquires fixpoint over the call
// graph.
func (lo *lockOrder) buildSummaries() {
	cg := lo.prog.CallGraph()
	guards := make(map[*types.Var]string) // guarded field -> mutex class
	for _, p := range lo.prog.Packages {
		for v, g := range collectGuardedFields(p) {
			guards[v] = p.Name + "." + g.structName + "." + g.muName
		}
	}
	nodes := cg.Nodes()
	for _, node := range nodes {
		direct := make(map[string]bool)
		var stack []ast.Node
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, method, isLock := lockCall(call); isLock && (method == "Lock" || method == "RLock") {
				if inGoContext(stack) {
					return true
				}
				if c := lo.lockClassOf(node.Pkg, call); c != "" {
					direct[c] = true
				}
			}
			return true
		})
		lo.acquires[node.Fn] = direct

		if strings.HasSuffix(node.Fn.Name(), "Locked") {
			held := make(map[string]bool)
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s, found := node.Pkg.Info.Selections[sel]; found && s.Kind() == types.FieldVal {
					if v, isVar := s.Obj().(*types.Var); isVar {
						if c, guarded := guards[v]; guarded {
							held[c] = true
						}
					}
				}
				return true
			})
			if len(held) > 0 {
				lo.entryHeld[node.Fn] = held
			}
		}
	}
	// Transitive closure: acquires(f) ∪= acquires(callee) until stable.
	for changed := true; changed; {
		changed = false
		for _, node := range nodes {
			acc := lo.acquires[node.Fn]
			for _, cs := range node.Calls {
				if cs.NewGoroutine {
					continue
				}
				for c := range lo.acquires[cs.Callee] {
					if !acc[c] {
						acc[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockClassOf names the lock class of a Lock/Unlock call: the mutex field's
// declaring struct ("pkg.Struct.mu"), a package-level mutex variable
// ("pkg.mu"), or, for a promoted method on an embedded mutex, the embedding
// type ("pkg.Struct"). Locals and unresolvable receivers return "" and are
// not tracked.
func (lo *lockOrder) lockClassOf(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	recv := ast.Unparen(sel.X)
	t := p.Info.TypeOf(recv)
	if t == nil {
		return ""
	}
	if isMutexType(t) {
		switch x := recv.(type) {
		case *ast.SelectorExpr:
			if s, found := p.Info.Selections[x]; found && s.Kind() == types.FieldVal {
				if owner := namedOf(s.Recv()); owner != nil {
					return ownerPkgName(owner, p) + "." + owner.Obj().Name() + "." + x.Sel.Name
				}
			}
			// Package-qualified variable: pkg.mu.
			if v, isVar := p.Info.Uses[x.Sel].(*types.Var); isVar && isPackageLevel(v) {
				return v.Pkg().Name() + "." + v.Name()
			}
		case *ast.Ident:
			if v, isVar := p.Info.Uses[x].(*types.Var); isVar && isPackageLevel(v) {
				return v.Pkg().Name() + "." + v.Name()
			}
		}
		return ""
	}
	// Promoted Lock/Unlock through an embedded mutex: class by the
	// embedding named type.
	if owner := namedOf(t); owner != nil {
		if _, isStruct := owner.Underlying().(*types.Struct); isStruct {
			return ownerPkgName(owner, p) + "." + owner.Obj().Name()
		}
	}
	return ""
}

func isMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func ownerPkgName(n *types.Named, fallback *Package) string {
	if pkg := n.Obj().Pkg(); pkg != nil {
		return pkg.Name()
	}
	return fallback.Name
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// collectEdges runs the CFG may-analysis over every function body and
// records acquisition edges.
func (lo *lockOrder) collectEdges() {
	cg := lo.prog.CallGraph()
	for _, node := range cg.Nodes() {
		entry := lo.entryHeld[node.Fn]
		lo.analyzeBody(node.Pkg, node.Decl.Body, entry)
	}
	// Function literals get their own pass: empty entry held set (what the
	// enclosing function holds at launch/definition time is not tracked),
	// go-launched or not — their internal ordering still matters.
	for _, p := range lo.prog.Packages {
		for _, fb := range functionsOf(p) {
			if _, ok := fb.node.(*ast.FuncLit); ok {
				lo.analyzeBody(p, fb.body, nil)
			}
		}
	}
}

// heldSet is the dataflow fact: the set of lock classes that may be held.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

func (h heldSet) equal(o heldSet) bool {
	if len(h) != len(o) {
		return false
	}
	for k := range h {
		if !o[k] {
			return false
		}
	}
	return true
}

// analyzeBody runs the forward may-analysis over one function body.
func (lo *lockOrder) analyzeBody(p *Package, body *ast.BlockStmt, entry heldSet) {
	cfg := BuildCFG(body)
	in := make([]heldSet, len(cfg.Blocks))
	in[cfg.Entry.Index] = entry.clone()
	preds := cfg.Preds()
	// Iterate to fixpoint; the lattice (sets of classes, union) is finite.
	// The entry block keeps its seed; a block no reachable predecessor
	// feeds stays nil (unreachable).
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if b == cfg.Entry {
				continue
			}
			var merged heldSet
			for _, pr := range preds[b] {
				if in[pr.Index] == nil {
					continue
				}
				if merged == nil {
					merged = heldSet{}
				}
				for k := range lo.transferBlock(p, pr, in[pr.Index], false) {
					merged[k] = true
				}
			}
			if merged != nil && (in[b.Index] == nil || !merged.equal(in[b.Index])) {
				in[b.Index] = merged
				changed = true
			}
		}
	}
	// Recording pass at the fixpoint.
	for _, b := range cfg.Blocks {
		if in[b.Index] != nil {
			lo.transferBlock(p, b, in[b.Index], true)
		}
	}
}

// transferBlock applies the block's nodes to the held set, optionally
// recording acquisition edges, and returns the out-state.
func (lo *lockOrder) transferBlock(p *Package, b *CFGBlock, state heldSet, record bool) heldSet {
	cur := state.clone()
	for _, n := range b.Nodes {
		lo.transferNode(p, n, cur, record)
	}
	return cur
}

// transferNode walks one CFG node (a simple statement or control
// expression), updating the held set in source order. Nested function
// literals and go statements are skipped: their bodies run elsewhere.
func (lo *lockOrder) transferNode(p *Package, n ast.Node, state heldSet, record bool) {
	if _, isGo := n.(*ast.GoStmt); isGo {
		return
	}
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		// `defer mu.Unlock()` releases at exit — the lock stays held for
		// the rest of this function, which the per-block states already
		// express; deferred calls to other functions run with an unknown
		// held set and are not charged edges.
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		if _, isGo := m.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, method, isLock := lockCall(call); isLock {
			c := lo.lockClassOf(p, call)
			if c == "" {
				return true
			}
			switch method {
			case "Lock", "RLock":
				if record {
					for h := range state {
						if h != c {
							lo.addEdge(h, c, lockEdgeSite{p: p, node: call})
						}
					}
				}
				state[c] = true
			case "Unlock", "RUnlock":
				delete(state, c)
			}
			return true
		}
		if callee := calleeOf(p, call); callee != nil {
			if record {
				for a := range lo.acquires[callee] {
					for h := range state {
						if h != a {
							lo.addEdge(h, a, lockEdgeSite{p: p, node: call, via: callee.Name()})
						}
					}
				}
			}
		}
		return true
	})
}

func (lo *lockOrder) addEdge(from, to string, site lockEdgeSite) {
	lo.edges[lockEdge{from, to}] = append(lo.edges[lockEdge{from, to}], site)
}

// report emits one diagnostic per acquisition edge that lies on a cycle —
// its target reaches back to its source — anchored at the edge's earliest
// program point and naming a shortest such cycle.
func (lo *lockOrder) report() []Diagnostic {
	adj := make(map[string][]string)
	var keys []lockEdge
	for e := range lo.edges {
		keys = append(keys, e)
		adj[e.from] = append(adj[e.from], e.to)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, tos := range adj {
		sort.Strings(tos)
	}
	var out []Diagnostic
	for _, e := range keys {
		back := shortestPath(adj, e.to, e.from)
		if back == nil {
			continue
		}
		sites := lo.edges[e]
		sort.Slice(sites, func(i, j int) bool { return sites[i].node.Pos() < sites[j].node.Pos() })
		s := sites[0]
		via := ""
		if s.via != "" {
			via = fmt.Sprintf(" (via call to %s)", s.via)
		}
		out = append(out, diagAt(s.p, "lockorder", s.node,
			"acquires %s while holding %s%s; completes the lock-order cycle %s — a goroutine taking the opposite order deadlocks",
			e.to, e.from, via, strings.Join(append([]string{e.from}, back...), " -> ")))
	}
	return out
}

// shortestPath is a breadth-first search over adj (neighbours sorted) and
// returns the classes from src to dst inclusive, or nil when dst is
// unreachable.
func shortestPath(adj map[string][]string, src, dst string) []string {
	prev := map[string]string{src: ""}
	for queue := []string{src}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		if cur == dst {
			var path []string
			for ; cur != src; cur = prev[cur] {
				path = append(path, cur)
			}
			path = append(path, src)
			slices.Reverse(path)
			return path
		}
		for _, n := range adj[cur] {
			if _, seen := prev[n]; !seen {
				prev[n] = cur
				queue = append(queue, n)
			}
		}
	}
	return nil
}
