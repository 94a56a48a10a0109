package lint

import (
	"testing"
	"time"
)

// selfRuntimeBudget bounds a full-tree capslint analysis pass. The suite is
// part of `make verify`, so its own latency is a correctness property: a
// whole-program analyzer that goes quadratic on the real tree should fail
// here, not slow every build. Loading/type-checking is measured separately
// from analysis so a regression report points at the right half.
const selfRuntimeBudget = 30 * time.Second

// TestSelfRuntimeBudgetFullTree loads the whole module and runs the full
// suite, asserting the analysis stays inside the budget and — the gate
// `make lint` relies on — reports zero unsuppressed findings.
func TestSelfRuntimeBudgetFullTree(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load is not a -short test")
	}
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	loadStart := time.Now()
	dirs, err := loader.Expand([]string{loader.Root() + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	loadTime := time.Since(loadStart)
	if len(pkgs) < 10 {
		t.Fatalf("only %d packages loaded from the module root; expansion is broken", len(pkgs))
	}
	runStart := time.Now()
	diags := Run(pkgs)
	runTime := time.Since(runStart)
	for _, d := range diags {
		t.Errorf("unsuppressed finding on the tree: %v", d)
	}
	if runTime > selfRuntimeBudget {
		t.Errorf("full-tree analysis took %v (load/type-check: %v), over the %v budget", runTime, loadTime, selfRuntimeBudget)
	}
	t.Logf("full tree: %d packages, load %v, analysis %v", len(pkgs), loadTime, runTime)
}
