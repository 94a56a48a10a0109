package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// deterministicPackages are the packages whose outputs must be a pure
// function of their inputs: the CAPS search and its cost model, the
// baselines it is compared against, the simulator that scores plans, the
// experiment report paths serialized into golden files, and the metrics
// primitives those paths snapshot (meter rates take an injectable clock so
// replayed snapshots are exact).
var deterministicPackages = []string{
	"caps", "placement", "costmodel", "odrp", "simulator", "ds2", "experiments", "metrics",
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandCtors are the math/rand top-level functions that do NOT draw
// from the package-global (unseeded) source.
var seededRandCtors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

var determinismAnalyzer = &Analyzer{
	Name:     "determinism",
	Packages: deterministicPackages,
	Run:      runDeterminism,
}

func runDeterminism(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		timeName := importedAs(f, "time")
		randName := importedAs(f, "math/rand")
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if name, ok := resolvePkgCall(p, f, x, "time", timeName); ok && wallClockFuncs[name] {
					out = append(out, diagAt(p, "determinism", x,
						"time.%s reads the wall clock inside a deterministic package; inject a clock.Clock (internal/clock) through the options instead", name))
				}
				if name, ok := resolvePkgCall(p, f, x, "math/rand", randName); ok && !seededRandCtors[name] {
					out = append(out, diagAt(p, "determinism", x,
						"rand.%s draws from the process-global source; use rand.New(rand.NewSource(seed)) so runs replay", name))
				}
			case *ast.RangeStmt:
				if d, bad := mapRangeDiag(p, x); bad {
					out = append(out, d)
				}
			}
			return true
		})
	}
	return out
}

// resolvePkgCall reports whether call invokes a package-level function of
// pkgPath and returns its name. Type information is authoritative; when the
// checker could not resolve the callee, a syntactic match on the file's
// import name is used instead.
func resolvePkgCall(p *Package, f *ast.File, call *ast.CallExpr, pkgPath, localName string) (string, bool) {
	if name, path, ok := pkgFuncObj(p, call.Fun); ok {
		return name, path == pkgPath
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || localName == "" {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != localName {
		return "", false
	}
	if obj, resolved := p.Info.Uses[id]; resolved {
		if _, isPkg := obj.(*types.PkgName); !isPkg {
			return "", false // shadowed by a local binding
		}
	}
	return sel.Sel.Name, true
}

// mapRangeDiag flags ranges over maps whose iteration order can leak into
// the result. Two single-statement bodies are recognized as order-
// insensitive idioms and skipped:
//
//	s = append(s, ...)   // gather, with the sort expected to follow
//	m2[k] = ...          // rebuild keyed by the (injective) range key
func mapRangeDiag(p *Package, rs *ast.RangeStmt) (Diagnostic, bool) {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return Diagnostic{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return Diagnostic{}, false
	}
	// `for range m` only counts; order cannot be observed.
	if rs.Key == nil {
		return Diagnostic{}, false
	}
	keyName := ""
	if id, ok := rs.Key.(*ast.Ident); ok {
		keyName = id.Name
	}
	if keyName == "_" && rs.Value == nil {
		return Diagnostic{}, false
	}
	if orderInsensitiveBody(p, rs.Body, keyName) {
		return Diagnostic{}, false
	}
	return diagAt(p, "determinism", rs,
		"map iteration order is nondeterministic and this loop body observes it; collect and sort the keys first"), true
}

func orderInsensitiveBody(p *Package, body *ast.BlockStmt, keyName string) bool {
	if len(body.List) != 1 {
		return false
	}
	as, ok := body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	// Gather idiom: s = append(s, ...).
	if call, isCall := as.Rhs[0].(*ast.CallExpr); isCall {
		if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "append" && len(call.Args) >= 2 {
			if lhs := exprString(as.Lhs[0]); lhs != "" && lhs == exprString(call.Args[0]) {
				return true
			}
		}
	}
	// Rebuild idiom: m2[k] = v with k the range key (injective, so no
	// last-writer-wins ambiguity).
	if ix, isIndex := as.Lhs[0].(*ast.IndexExpr); isIndex && keyName != "" && keyName != "_" {
		if id, isIdent := ix.Index.(*ast.Ident); isIdent && id.Name == keyName {
			if mt := p.Info.TypeOf(ix.X); mt != nil {
				if _, isMap := mt.Underlying().(*types.Map); isMap {
					return true
				}
			}
		}
	}
	return false
}
