package lint

import (
	"go/ast"
	"go/types"
)

// chansAnalyzer guards the engine's backpressure story: every channel in
// the engine is bounded (that is what makes backpressure real), so a bare
// send can block forever once a downstream task has died. Sends must sit in
// a select with a stop/ctx case (or a default case for best-effort sends).
//
// One shape is non-blocking by construction and exempt: the sized fan-in,
// where a channel is made with capacity len(xs), one goroutine is launched
// per element of xs, and each goroutine performs at most one send (the
// engine's batch-flush error collection uses it — every flush goroutine
// reports at most once into a channel sized to the fan-out). The analyzer
// recognizes that shape structurally instead of requiring a suppression.
var chansAnalyzer = &Analyzer{
	Name:     "chans",
	Packages: []string{"engine"},
	Run:      runChans,
}

func runChans(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		// First pass: classify sends that are select comm clauses.
		okSends := sizedFanInSends(f)
		badSelect := make(map[*ast.SendStmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			escape := selectHasEscape(sel)
			for _, c := range sel.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					if escape {
						okSends[send] = true
					} else {
						badSelect[send] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			switch {
			case okSends[send]:
			case badSelect[send]:
				out = append(out, diagAt(p, "chans", send,
					"send on %s sits in a select with no stop/ctx or default case; a dead receiver deadlocks the sender",
					types.ExprString(send.Chan)))
			default:
				out = append(out, diagAt(p, "chans", send,
					"bare send on bounded channel %s can block forever under backpressure; wrap it in a select with a stop/ctx case",
					types.ExprString(send.Chan)))
			}
			return true
		})
	}
	return out
}

// sizedFanInSends finds bare sends that cannot block by construction: the
// channel was made in the same function with `make(chan T, len(xs))`, the
// send sits in a `go func` literal launched from a `range xs` loop, and no
// loop lies between the goroutine body and the send (so each goroutine
// sends at most once, and the capacity bounds the total).
func sizedFanInSends(f *ast.File) map[*ast.SendStmt]bool {
	allowed := make(map[*ast.SendStmt]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		// Channels created in this function with a len-derived capacity:
		// channel name -> rendered collection expression.
		sized := make(map[string]string)
		inspectShallow(fn.Body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if coll := lenMakeChanArg(as.Rhs[0]); coll != "" {
				sized[id.Name] = coll
			}
			return true
		})
		if len(sized) == 0 {
			return true
		}
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			rs, ok := m.(*ast.RangeStmt)
			if !ok {
				return true
			}
			coll := exprString(rs.X)
			if coll == "" {
				return true
			}
			ast.Inspect(rs.Body, func(gn ast.Node) bool {
				g, ok := gn.(*ast.GoStmt)
				if !ok {
					return true
				}
				fl, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				for _, send := range unloopedSends(fl.Body) {
					if name := exprString(send.Chan); sized[name] == coll {
						allowed[send] = true
					}
				}
				return true
			})
			return true
		})
		return true
	})
	return allowed
}

// lenMakeChanArg matches `make(chan T, len(xs))` and returns the rendered
// xs, or "" when e is any other expression.
func lenMakeChanArg(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return ""
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
		return ""
	}
	if _, ok := call.Args[0].(*ast.ChanType); !ok {
		return ""
	}
	lenCall, ok := call.Args[1].(*ast.CallExpr)
	if !ok || len(lenCall.Args) != 1 {
		return ""
	}
	if id, ok := lenCall.Fun.(*ast.Ident); !ok || id.Name != "len" {
		return ""
	}
	return exprString(lenCall.Args[0])
}

// unloopedSends lists the sends in a goroutine body that execute at most
// once per goroutine: not nested inside a for/range loop or a further
// function literal.
func unloopedSends(body *ast.BlockStmt) []*ast.SendStmt {
	var out []*ast.SendStmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.SendStmt:
			out = append(out, x)
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}
