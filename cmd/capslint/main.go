// Command capslint runs the project's static analysis suite (internal/lint)
// over package patterns and exits non-zero when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/capslint ./...
//	capslint -json ./internal/engine
//	capslint -strict -checks determinism,locks ./...
//	capslint -diff ./...   # print suggested rewrites for mechanical checks
//
// Findings are suppressed in place with `//capslint:allow <check> <reason>`
// on the flagged line or the line above; -strict reports suppressions that
// no longer suppress anything. Built purely on the standard library's
// go/parser, go/ast and go/types — no external dependencies — so it runs
// from a clean checkout with nothing but the Go toolchain.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"capsys/internal/lint"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array")
		strict  = flag.Bool("strict", false, "also report stale //capslint:allow suppressions")
		diff    = flag.Bool("diff", false, "print suggested rewrites for mechanical findings")
		checks  = flag.String("checks", "", "comma-separated checks to run (default: all)")
		disable = flag.String("disable", "", "comma-separated checks to skip")
		list    = flag.Bool("list", false, "list available checks and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader("")
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}
	cfg := lint.Config{Strict: *strict, Enable: splitList(*checks), Disable: splitList(*disable)}
	// Load every target package first, then lint them together as one
	// program: the whole-program analyzers (lockorder, frameproto) need to
	// see a call site in one package and the function body or frame
	// constant it refers to in another.
	var pkgs []*lint.Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", dir, err))
		}
		if p == nil {
			continue
		}
		pkgs = append(pkgs, p)
	}
	diags, err := lint.Run(pkgs, cfg)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *diff && d.Suggestion != "" {
				printRewrite(loader.Root(), d)
			}
		}
		fmt.Fprintf(os.Stderr, "capslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// printRewrite renders a finding's mechanical suggestion as a small diff
// against the flagged source line.
func printRewrite(root string, d lint.Diagnostic) {
	path := d.File
	if !filepath.IsAbs(path) {
		path = filepath.Join(root, filepath.FromSlash(d.File))
	}
	if line := readLine(path, d.Line); line != "" {
		fmt.Printf("\t- %s\n", strings.TrimLeft(line, " \t"))
	}
	fmt.Printf("\t+ %s\n", d.Suggestion)
}

func readLine(path string, line int) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for i := 1; sc.Scan(); i++ {
		if i == line {
			return sc.Text()
		}
	}
	return ""
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capslint:", err)
	os.Exit(2)
}
