// Package lint is capslint: a project-specific static analysis suite built
// purely on the standard library's go/parser, go/ast, go/types and go/token.
//
// The Go compiler cannot see the invariants CAPSys's correctness rests on:
// the CAPS search must be bitwise deterministic (the golden and property
// tests replay it), the engine's shared token-bucket meters must never be
// touched outside their guarding mutex, and bounded-channel sends must stay
// cancellable or backpressure becomes deadlock. capslint checks those
// invariants before the code runs, on every `make verify`:
//
//   - determinism: wall-clock reads, unseeded global math/rand and
//     nondeterministic map iteration inside the deterministic packages
//   - locks: Lock calls without an Unlock on every return path, plus
//     "guarded by <mu>" field annotations
//   - chans: bounded-channel sends outside a cancellable select
//   - goroutines: goroutine literals without a lifecycle tie-off
//   - atomics: sync/atomic package functions instead of typed atomics
//   - lockorder: cyclic lock-acquisition orders across the call graph
//     (potential deadlocks)
//   - frameproto: every declared wire-frame type is handled by a dispatch
//     switch, and every Frame literal uses a declared constant
//
// The first five are per-package syntax/type checks. The last two are
// whole-program: they run once over every loaded package together (the CFG
// and call-graph foundation in cfg.go and callgraph.go), so `capslint ./...`
// sees lock edges and frame handlers wherever they live.
//
// What the toolchain or the runtime already enforces is left to them: go
// vet's copylocks check flags copies of typed atomics, Go 1.22 loop
// variables are per iteration, and metric names are checked where their
// cells are created (metrics.CheckName).
//
// Findings are suppressed in place with
//
//	//capslint:allow <check> <reason>
//
// on the flagged line or the line above. A suppression without a reason is
// itself a finding; a suppression that suppresses nothing is reported in
// strict mode.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"capsys/internal/clock"
)

// Diagnostic is one finding, addressed by file:line.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Suggestion, when non-empty, is a mechanical rewrite of the flagged
	// line, printed by the -diff flag.
	Suggestion string `json:"suggestion,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the check in output, -checks/-disable flags and
	// //capslint:allow comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Packages restricts the check to packages with these names (the
	// package clause, not the import path); nil means every package.
	Packages []string
	// Run reports the raw findings for one package; suppression filtering
	// happens in the driver. Exactly one of Run and RunProgram is set.
	Run func(p *Package) []Diagnostic
	// RunProgram reports findings for the whole program at once. Analyzers
	// that need cross-package context (the call graph, frame handlers in a
	// different package than the frame constants) use this instead of Run.
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
		goroutinesAnalyzer,
		atomicsAnalyzer,
		lockorderAnalyzer,
		frameprotoAnalyzer,
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

// Config selects checks and modes for a run.
type Config struct {
	// Enable lists check names to run (nil = all).
	Enable []string
	// Disable lists check names to skip.
	Disable []string
	// Strict additionally reports stale suppressions.
	Strict bool
}

func (c Config) selected() ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	if c.Enable == nil {
		out = Analyzers()
	} else {
		for _, n := range c.Enable {
			a, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("lint: unknown check %q", n)
			}
			out = append(out, a)
		}
	}
	if len(c.Disable) > 0 {
		skip := make(map[string]bool, len(c.Disable))
		for _, n := range c.Disable {
			if _, ok := byName[n]; !ok {
				return nil, fmt.Errorf("lint: unknown check %q", n)
			}
			skip[n] = true
		}
		kept := out[:0]
		for _, a := range out {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		out = kept
	}
	return out, nil
}

// allow is one parsed //capslint:allow comment.
type allow struct {
	check  string
	reason string
	file   string
	line   int
	col    int
	valid  bool // has a check name and a reason
	used   bool
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
					a.reason = strings.Join(fields[1:], " ")
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
func RunPackage(p *Package, cfg Config) ([]Diagnostic, error) {
	return Run([]*Package{p}, cfg)
}

// RunStats records where a run's wall time went, measured with an
// injectable clock so both the timing plumbing and the self-runtime budget
// gate are testable.
type RunStats struct {
	// PerCheck is the cumulative analysis time per check name.
	PerCheck map[string]time.Duration
	// Total is the whole run: analysis plus suppression filtering.
	Total time.Duration
}

// Run lints the packages as one program: per-package analyzers run on each
// applicable package, whole-program analyzers run once over all of them,
// then suppressions are applied and suppression-hygiene findings appended.
func Run(pkgs []*Package, cfg Config) ([]Diagnostic, error) {
	diags, _, err := RunTimed(pkgs, cfg, nil)
	return diags, err
}

// RunTimed is Run with per-check timing measured by clk (nil means the
// system clock).
func RunTimed(pkgs []*Package, cfg Config, clk clock.Clock) ([]Diagnostic, RunStats, error) {
	clk = clk.OrSystem()
	stats := RunStats{PerCheck: make(map[string]time.Duration)}
	start := clk()
	analyzers, err := cfg.selected()
	if err != nil {
		return nil, stats, err
	}
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	prog := &Program{Packages: pkgs}
	// ran records, per package, which checks examined it: stale-suppression
	// detection must not fire for a check that skipped the package.
	ran := make(map[*Package]map[string]bool)
	for _, p := range pkgs {
		ran[p] = make(map[string]bool)
	}
	var raw []Diagnostic
	for _, a := range analyzers {
		t0 := clk()
		if a.RunProgram != nil {
			raw = append(raw, a.RunProgram(prog)...)
			for _, p := range pkgs {
				if a.appliesTo(p.Name) {
					ran[p][a.Name] = true
				}
			}
		} else {
			for _, p := range pkgs {
				if !a.appliesTo(p.Name) {
					continue
				}
				ran[p][a.Name] = true
				raw = append(raw, a.Run(p)...)
			}
		}
		stats.PerCheck[a.Name] += clk().Sub(t0)
	}
	var out []Diagnostic
	var allows []*allow
	allowPkg := make(map[*allow]*Package)
	for _, p := range pkgs {
		as, ds := parseAllows(p, known)
		out = append(out, ds...)
		for _, a := range as {
			allowPkg[a] = p
		}
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
	if cfg.Strict {
		for _, a := range allows {
			// An allow for a check that did not run on this package is not
			// stale — it may suppress findings of a differently-scoped run.
			if a.valid && !a.used && ran[allowPkg[a]][a.check] {
				out = append(out, Diagnostic{
					Check: SuppressCheck, File: a.file, Line: a.line, Col: a.col,
					Message: fmt.Sprintf("stale suppression: no %s finding on this or the next line", a.check),
				})
			}
		}
	}
	sortDiagnostics(out)
	stats.Total = clk().Sub(start)
	return out, stats, nil
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
