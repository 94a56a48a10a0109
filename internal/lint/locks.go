package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

var locksAnalyzer = &Analyzer{
	Name: "locks",
	Run:  runLocks,
}

var unlockOf = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func runLocks(p *Package) []Diagnostic {
	out := runLockPairing(p)
	out = append(out, runGuardedFields(p)...)
	return out
}

// lockCall matches a (possibly deferred) <recv>.<method>() call and renders
// the receiver.
func lockCall(e ast.Expr) (recv, method string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if r := exprString(sel.X); r != "" {
			return r, sel.Sel.Name, true
		}
	}
	return "", "", false
}

// runLockPairing checks, per function, that every Lock()/RLock() is
// released on all return paths: either a matching defer Unlock later in the
// function, or a matching explicit Unlock later in the same block with no
// return statement in between.
func runLockPairing(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, fn := range functionsOf(p) {
		// Gather deferred unlocks of this function (shallow: a nested
		// literal's defer releases nothing for us).
		type deferred struct {
			recv, method string
			pos          ast.Node
		}
		var defers []deferred
		inspectShallow(fn.body, func(n ast.Node) bool {
			if ds, ok := n.(*ast.DeferStmt); ok {
				if recv, method, ok := lockCall(ds.Call); ok {
					defers = append(defers, deferred{recv, method, ds})
				}
			}
			return true
		})
		// Visit every block shallowly and check each Lock statement.
		inspectShallow(fn.body, func(n ast.Node) bool {
			block, isBlock := n.(*ast.BlockStmt)
			if !isBlock {
				return true
			}
			for i, stmt := range block.List {
				es, isExpr := stmt.(*ast.ExprStmt)
				if !isExpr {
					continue
				}
				recv, method, ok := lockCall(es.X)
				if !ok || unlockOf[method] == "" {
					continue
				}
				want := unlockOf[method]
				// Deferred release anywhere after the Lock covers every
				// return path.
				covered := false
				for _, d := range defers {
					if d.recv == recv && d.method == want && d.pos.Pos() > es.Pos() {
						covered = true
						break
					}
				}
				if covered {
					continue
				}
				// Explicit release: a sibling statement later in this block.
				relIdx := -1
				for j := i + 1; j < len(block.List); j++ {
					if es2, ok2 := block.List[j].(*ast.ExprStmt); ok2 {
						if r2, m2, ok3 := lockCall(es2.X); ok3 && r2 == recv && m2 == want {
							relIdx = j
							break
						}
					}
				}
				if relIdx < 0 {
					out = append(out, diagAt(p, "locks", es,
						"%s.%s() has no matching %s on this path; add `defer %s.%s()` or release before returning",
						recv, method, want, recv, want))
					continue
				}
				// A return between Lock and the explicit Unlock escapes
				// with the lock held.
				for j := i + 1; j < relIdx; j++ {
					escaped := false
					inspectShallow(block.List[j], func(m ast.Node) bool {
						if _, isRet := m.(*ast.ReturnStmt); isRet {
							escaped = true
							return false
						}
						return true
					})
					if escaped {
						out = append(out, diagAt(p, "locks", es,
							"%s.%s() is released by an explicit %s below, but a return between them escapes with the lock held; use `defer %s.%s()`",
							recv, method, want, recv, want))
						break
					}
				}
			}
			return true
		})
	}
	return out
}

// guardedField records a `// guarded by <mu>` annotation on a struct field.
type guardedField struct {
	structName string
	fieldName  string
	muName     string
}

const guardedByMarker = "guarded by "

// collectGuardedFields finds annotated struct fields and maps their
// types.Var objects to the guard.
func collectGuardedFields(p *Package) map[*types.Var]guardedField {
	out := make(map[*types.Var]guardedField)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardNameFrom(field.Doc) // leading comment
				if mu == "" {
					mu = guardNameFrom(field.Comment) // trailing comment
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						out[v] = guardedField{structName: ts.Name.Name, fieldName: name.Name, muName: mu}
					}
				}
			}
			return true
		})
	}
	return out
}

func guardNameFrom(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		idx := strings.Index(text, guardedByMarker)
		if idx < 0 {
			continue
		}
		rest := strings.Fields(text[idx+len(guardedByMarker):])
		if len(rest) > 0 {
			return strings.TrimRight(rest[0], ".,;")
		}
	}
	return ""
}

// runGuardedFields checks that every selector access to an annotated field
// happens in a function that visibly takes the guard: it contains a
// <...>.<mu>.Lock()/RLock() call, or its name ends in "Locked" (the
// caller-holds-the-lock convention).
func runGuardedFields(p *Package) []Diagnostic {
	guards := collectGuardedFields(p)
	if len(guards) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, fn := range functionsOf(p) {
		if strings.HasSuffix(fn.name, "Locked") {
			continue
		}
		// Does this function take any guard? Record which mutex names it
		// locks (by final selector element).
		locked := make(map[string]bool)
		inspectShallow(fn.body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, method, ok := lockCall(call); ok && (method == "Lock" || method == "RLock") {
				if i := strings.LastIndex(recv, "."); i >= 0 {
					locked[recv[i+1:]] = true
				} else {
					locked[recv] = true
				}
			}
			return true
		})
		inspectShallow(fn.body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selInfo, ok := p.Info.Selections[sel]
			if !ok || selInfo.Kind() != types.FieldVal {
				return true
			}
			v, ok := selInfo.Obj().(*types.Var)
			if !ok {
				return true
			}
			g, ok := guards[v]
			if !ok || locked[g.muName] {
				return true
			}
			out = append(out, diagAt(p, "locks", sel,
				"%s.%s is guarded by %s but this function never locks it; take %s.%s or move the access into a *Locked helper",
				g.structName, g.fieldName, g.muName, g.structName, g.muName))
			return true
		})
	}
	return out
}
