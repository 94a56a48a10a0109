package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// exprString renders simple receiver expressions ("m.mu", "s.a.mu") for
// matching Lock/Unlock pairs. Anything beyond ident/selector/paren/star
// chains renders to "" and never matches.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	}
	return ""
}

// funcBody pairs a function-like node with its body. Nested function
// literals are separate entries: lock pairing applies per function, not per
// lexical file.
type funcBody struct {
	name string // "" for literals
	node ast.Node
	body *ast.BlockStmt
}

// functionsOf lists every function body in the package: declarations and
// function literals.
func functionsOf(p *Package) []funcBody {
	var out []funcBody
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, funcBody{name: fn.Name.Name, node: fn, body: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, funcBody{node: fn, body: fn.Body})
			}
			return true
		})
	}
	return out
}

// inspectShallow walks n but does not descend into nested function
// literals: statements inside a FuncLit belong to that function's own
// analysis scope.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
	})
}

// pkgFuncObj resolves a called selector or ident to a package-level
// function object and returns it with its package path. Methods resolve
// with ok=false.
func pkgFuncObj(p *Package, fun ast.Expr) (name, pkgPath string, ok bool) {
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return "", "", false
	}
	obj, _ := p.Info.Uses[id].(*types.Func)
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	if sig, _ := obj.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return "", "", false
	}
	return obj.Name(), obj.Pkg().Path(), true
}

// importedAs returns the local name binding an import path in file f
// ("" when not imported). The default name is the path's last element.
func importedAs(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// cancelChanRE matches channel names that conventionally signal shutdown.
var cancelChanRE = regexp.MustCompile(`(?i)(stop|abort|quit|done|cancel|exit|closed|kill)`)

// isCancelRecv reports whether e is a receive source that signals
// cancellation: ctx.Done()-style calls or stop/abort/quit channels.
func isCancelRecv(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			return cancelChanRE.MatchString(sel.Sel.Name)
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			return cancelChanRE.MatchString(id.Name)
		}
	case *ast.Ident:
		return cancelChanRE.MatchString(x.Name)
	case *ast.SelectorExpr:
		return cancelChanRE.MatchString(x.Sel.Name)
	case *ast.ParenExpr:
		return isCancelRecv(x.X)
	}
	return false
}

// commRecvExpr extracts the received-from channel expression of a select
// comm clause statement, or nil when the clause is not a receive.
func commRecvExpr(s ast.Stmt) ast.Expr {
	recvOf := func(e ast.Expr) ast.Expr {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
			return u.X
		}
		return nil
	}
	switch st := s.(type) {
	case *ast.ExprStmt:
		return recvOf(st.X)
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 {
			return recvOf(st.Rhs[0])
		}
	}
	return nil
}

// selectHasEscape reports whether a select statement has a cancellation
// receive case or a default case — either keeps the blocking comm from
// hanging forever.
func selectHasEscape(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default:
		}
		if ch := commRecvExpr(cc.Comm); ch != nil && isCancelRecv(ch) {
			return true
		}
	}
	return false
}
