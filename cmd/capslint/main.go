// Command capslint runs the project's static analysis suite (internal/lint)
// over package patterns and exits non-zero when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/capslint ./...
//
// Findings are suppressed in place with `//capslint:allow <check> <reason>`
// on the flagged line or the line above; an allow that suppresses nothing is
// itself a finding. Built purely on the standard library's go/parser, go/ast
// and go/types — no external dependencies — so it runs from a clean checkout
// with nothing but the Go toolchain.
package main

import (
	"flag"
	"fmt"
	"os"

	"capsys/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: capslint [packages] (default ./...)")
	}
	flag.Parse()
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
	// Load every target package first, then lint them together as one
	// program: lockorder needs to see a call site in one package and the
	// function body it calls in another.
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
	diags := lint.Run(pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "capslint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "capslint:", err)
	os.Exit(2)
}
