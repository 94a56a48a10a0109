package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutinesAnalyzer covers goroutine lifecycle hygiene in the runtime
// packages: a `go func` literal must be tied off — a WaitGroup Done, a
// stop/ctx channel it watches, or ownership of a channel it closes.
var goroutinesAnalyzer = &Analyzer{
	Name:     "goroutines",
	Doc:      "go func literals that lack a WaitGroup/stop-channel tie-off",
	Packages: []string{"engine", "controller"},
	Run:      runGoroutines,
}

func runGoroutines(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && !tiedOff(p, lit) {
					out = append(out, diagAt(p, "goroutines", g,
						"goroutine literal has no lifecycle tie-off: add a WaitGroup Done, watch a stop/ctx channel, or range over a closable channel"))
				}
			}
			return true
		})
	}
	return out
}

// tiedOff reports whether a goroutine literal is joinable or stoppable.
func tiedOff(p *Package, lit *ast.FuncLit) bool {
	tied := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if method, pkgPath, typeName, ok := methodOnType(p, x); ok &&
				method == "Done" && pkgPath == "sync" && typeName == "WaitGroup" {
				tied = true
				return false
			}
			// close(ch) in a defer marks an ownership hand-off the reader
			// side joins on.
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" {
				tied = true
				return false
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isCancelRecv(x.X) {
				tied = true
				return false
			}
		case *ast.SelectStmt:
			if selectHasEscape(x) {
				tied = true
				return false
			}
		case *ast.RangeStmt:
			// `for msg := range ch` exits when the channel closes: the
			// sender owns the lifecycle.
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					tied = true
					return false
				}
			}
		}
		return true
	})
	return tied || connReaderLoop(p, lit)
}

// connReaderLoop recognizes the goroutine-per-connection idiom the network
// data plane is built from: a loop that blocks in Accept/Read on a
// connection-like value (anything with an Accept or Read method, or passed
// to a function that takes a reader) and returns on error. Such a
// goroutine IS tied off — its lifecycle is the connection's: closing the
// conn or listener fails the blocking call and the loop exits.
func connReaderLoop(p *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		var body *ast.BlockStmt
		switch x := n.(type) {
		case *ast.ForStmt:
			body = x.Body
		case *ast.RangeStmt:
			body = x.Body
		default:
			return true
		}
		hasRead, hasReturn := false, false
		ast.Inspect(body, func(m ast.Node) bool {
			switch y := m.(type) {
			case *ast.ReturnStmt:
				hasReturn = true
			case *ast.CallExpr:
				if isConnRead(p, y) {
					hasRead = true
				}
			}
			return true
		})
		if hasRead && hasReturn {
			found = true
			return false
		}
		return true
	})
	return found
}

// isConnRead reports whether a call blocks reading from a connection-like
// value: a method named Accept/Read/ReadFrame on a value with that method,
// or a package function whose argument is itself such a value (the frame
// codec's ReadFrame(conn) shape).
func isConnRead(p *Package, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Accept", "Read", "ReadFrame":
			if t := p.Info.TypeOf(sel.X); t != nil && hasAnyMethod(t, "Accept", "Read") {
				return true
			}
		}
	}
	// Function form: ReadFrame(c), bufio readers, etc. — an argument that
	// itself has a Read method counts as the blocking handle.
	if id := calleeName(call); id == "ReadFrame" || id == "ReadFull" {
		for _, arg := range call.Args {
			if t := p.Info.TypeOf(arg); t != nil && hasAnyMethod(t, "Read") {
				return true
			}
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// hasAnyMethod reports whether t (or *t) has a method with one of the
// given names.
func hasAnyMethod(t types.Type, names ...string) bool {
	check := func(ms *types.MethodSet) bool {
		for i := 0; i < ms.Len(); i++ {
			for _, name := range names {
				if ms.At(i).Obj().Name() == name {
					return true
				}
			}
		}
		return false
	}
	if check(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return check(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}
