// Package lint is capslint: a project-specific static analysis suite built
// purely on the standard library's go/parser, go/ast, go/types and go/token.
//
// The Go compiler cannot see the invariants CAPSys's correctness rests on:
// the CAPS search must be bitwise deterministic (the golden and property
// tests replay it), the engine's shared state must never be touched outside
// its guarding mutex, and bounded-channel sends must stay cancellable or
// backpressure becomes deadlock. capslint checks those invariants before the
// code runs, on every `make verify`:
//
//   - determinism: wall-clock reads, unseeded global math/rand and
//     nondeterministic map iteration inside the deterministic packages
//   - locks: Lock calls without an Unlock on every return path, plus
//     "guarded by <mu>" field annotations
//   - chans: bounded-channel sends outside a cancellable select
//   - atomics: sync/atomic package functions instead of typed atomics
//   - lockorder: cyclic lock-acquisition orders across the call graph
//     (potential deadlocks)
//
// The first four are per-package syntax/type checks. lockorder is
// whole-program: it runs once over every loaded package together (the CFG
// and call-graph foundation in cfg.go and callgraph.go), so `capslint ./...`
// sees lock edges wherever they live. Each analyzer stays because its
// fixture holds a fault seeded into the real tree that it alone catches:
// the tests and go vet pass with it in place, and so does the race detector
// for the concurrency checks.
//
// What the toolchain, the runtime or the tests already enforce is left to
// them: go vet's copylocks check flags copies of typed atomics, Go 1.22 loop
// variables are per iteration, metric names are checked where their cells
// are created (metrics.CheckName), wire-frame dispatch is exercised by the
// distributed tests, and goroutine leaks by TestNoGoroutineOutlivesAttempt.
//
// Findings are suppressed in place with
//
//	//capslint:allow <check> <reason>
//
// on the flagged line or the line above. A suppression without a reason is
// itself a finding, and so is one that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file:line.
type Diagnostic struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the check in output and in //capslint:allow
	// comments.
	Name string
	// Packages restricts the check to packages with these names (the
	// package clause, not the import path); nil means every package.
	Packages []string
	// Run reports the raw findings for one package; suppression filtering
	// happens in the driver. Exactly one of Run and RunProgram is set.
	Run func(p *Package) []Diagnostic
	// RunProgram reports findings for the whole program at once. Analyzers
	// that need cross-package context (the call graph) use this instead of
	// Run.
	RunProgram func(prog *Program) []Diagnostic
}

func (a *Analyzer) appliesTo(pkgName string) bool {
	if a.Packages == nil {
		return true
	}
	for _, n := range a.Packages {
		if n == pkgName {
			return true
		}
	}
	return false
}

// SuppressCheck is the pseudo-check name for diagnostics about the
// suppression comments themselves.
const SuppressCheck = "suppress"

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		locksAnalyzer,
		chansAnalyzer,
		atomicsAnalyzer,
		lockorderAnalyzer,
	}
}

// Program is the set of packages analyzed together. Whole-program analyzers
// receive it instead of a single package; the call graph is built lazily on
// first use and shared between them.
type Program struct {
	Packages []*Package

	cg *CallGraph
}

// CallGraph returns the program's static call graph, building it on first
// use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.cg == nil {
		prog.cg = buildCallGraph(prog)
	}
	return prog.cg
}

// allow is one parsed //capslint:allow comment.
type allow struct {
	check string
	file  string
	line  int
	col   int
	valid bool // has a check name and a reason
	used  bool
}

const allowPrefix = "//capslint:allow"

// parseAllows extracts suppression comments from a package's files.
func parseAllows(p *Package, knownChecks map[string]bool) (allows []*allow, diags []Diagnostic) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				a := &allow{file: relFile(p, pos.Filename), line: pos.Line, col: pos.Column}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					diags = append(diags, Diagnostic{
						Check: SuppressCheck, File: a.file, Line: a.line, Col: a.col,
						Message: "suppression names no check: want //capslint:allow <check> <reason>",
					})
				case !knownChecks[fields[0]]:
					diags = append(diags, Diagnostic{
						Check: SuppressCheck, File: a.file, Line: a.line, Col: a.col,
						Message: fmt.Sprintf("suppression names unknown check %q", fields[0]),
					})
				case len(fields) == 1:
					a.check = fields[0]
					diags = append(diags, Diagnostic{
						Check: SuppressCheck, File: a.file, Line: a.line, Col: a.col,
						Message: fmt.Sprintf("suppression of %q gives no reason: want //capslint:allow %s <reason>", fields[0], fields[0]),
					})
				default:
					a.check = fields[0]
					a.valid = true
				}
				allows = append(allows, a)
			}
		}
	}
	return allows, diags
}

// relFile renders a source file path relative to the package's rendered
// directory root, keeping diagnostics stable across machines.
func relFile(p *Package, filename string) string {
	base := filepath.Base(filename)
	if p.Dir == "." || p.Dir == "" {
		return base
	}
	return p.Dir + "/" + base
}

// posOf converts a node position into (file, line, col) diagnostic fields.
func posOf(p *Package, pos token.Pos) (string, int, int) {
	ps := p.Fset.Position(pos)
	return relFile(p, ps.Filename), ps.Line, ps.Column
}

func diagAt(p *Package, check string, n ast.Node, format string, args ...any) Diagnostic {
	file, line, col := posOf(p, n.Pos())
	return Diagnostic{Check: check, File: file, Line: line, Col: col, Message: fmt.Sprintf(format, args...)}
}

// RunPackage lints one package in isolation: it is Run over a one-package
// program, so whole-program analyzers see only this package (which is how
// the golden fixtures exercise them).
func RunPackage(p *Package) []Diagnostic {
	return Run([]*Package{p})
}

// Run lints the packages as one program: per-package analyzers run on each
// applicable package, whole-program analyzers run once over all of them,
// then suppressions are applied and suppression-hygiene findings appended.
// Every check runs on every package it applies to, so an allow that
// suppresses nothing is stale, whether its check found nothing there or
// never applies to the package.
func Run(pkgs []*Package) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	prog := &Program{Packages: pkgs}
	var raw []Diagnostic
	for _, a := range Analyzers() {
		if a.RunProgram != nil {
			raw = append(raw, a.RunProgram(prog)...)
			continue
		}
		for _, p := range pkgs {
			if a.appliesTo(p.Name) {
				raw = append(raw, a.Run(p)...)
			}
		}
	}
	var out []Diagnostic
	var allows []*allow
	for _, p := range pkgs {
		as, ds := parseAllows(p, known)
		out = append(out, ds...)
		allows = append(allows, as...)
	}
	// Diagnostic file paths and allow file paths are rendered by the same
	// relFile, so matching on the path string is exact across packages.
	for _, d := range raw {
		suppressed := false
		for _, a := range allows {
			if a.valid && a.check == d.Check && a.file == d.File &&
				(a.line == d.Line || a.line == d.Line-1) {
				a.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, a := range allows {
		if a.valid && !a.used {
			out = append(out, Diagnostic{
				Check: SuppressCheck, File: a.file, Line: a.line, Col: a.col,
				Message: fmt.Sprintf("stale suppression: no %s finding on this or the next line", a.check),
			})
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
