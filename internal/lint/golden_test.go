package lint

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden diagnostic files")

// TestGoldenDiagnostics runs the full suite (strict mode) over each fixture
// package under testdata/src and pins the exact file:line:col:check output
// against testdata/golden/<fixture>.golden.
func TestGoldenDiagnostics(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			p, err := loader.Load(filepath.Join("testdata/src", name))
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				t.Fatal("fixture has no Go files")
			}
			// Fixtures must type-check fully: a broken fixture silently
			// downgrades analyzers to their syntactic fallbacks.
			for _, te := range p.TypeErrors {
				t.Errorf("fixture type error: %v", te)
			}
			diags, err := RunPackage(p, Config{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.String())
				b.WriteString("\n")
			}
			got := b.String()
			goldenPath := filepath.Join("testdata/golden", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/lint -run Golden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestFixturesTripTheGate asserts the contract the Makefile gate relies on:
// reintroducing any fixture violation into a linted tree yields a non-empty
// diagnostic list (capslint exits non-zero on findings).
func TestFixturesTripTheGate(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"determ", "locks", "chans", "goroutines", "atomics", "lockorder", "frameproto", "overlap"} {
		p, err := loader.Load(filepath.Join("testdata/src", name))
		if err != nil {
			t.Fatal(err)
		}
		diags, err := RunPackage(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) == 0 {
			t.Errorf("fixture %s produced no findings; the gate would not trip", name)
		}
	}
}
