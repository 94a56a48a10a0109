package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load(filepath.Join("testdata/src", name))
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return p
}

func checksOf(diags []Diagnostic) map[string]int {
	out := make(map[string]int)
	for _, d := range diags {
		out[d.Check]++
	}
	return out
}

// TestOverlapSuppressionScoping pins per-check suppression on one line: the
// overlap fixture trips determinism and atomics on the same statement and
// carries an allow naming only determinism. The atomics finding must
// survive, and the allow must not be stale.
func TestOverlapSuppressionScoping(t *testing.T) {
	p := loadFixture(t, "overlap")
	diags := RunPackage(p)
	counts := checksOf(diags)
	if counts["determinism"] != 0 {
		t.Errorf("determinism finding not suppressed: %v", diags)
	}
	if counts["atomics"] != 1 {
		t.Errorf("want exactly 1 surviving atomics finding, got %d: %v", counts["atomics"], diags)
	}
	if counts[SuppressCheck] != 0 {
		t.Errorf("allow reported as stale or malformed: %v", diags)
	}
}

func TestExpandSkipsTestdata(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand walked into %s", d)
		}
		if filepath.ToSlash(d) == "." {
			found = true
		}
	}
	if !found {
		t.Error("Expand of ./... from internal/lint did not include the package itself")
	}
}

func TestRunAggregatesAndSorts(t *testing.T) {
	loader, err := NewLoader("")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, name := range []string{"locks", "chans"} {
		p, err := loader.Load(filepath.Join("testdata/src", name))
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	diags := Run(pkgs)
	if len(diags) == 0 {
		t.Fatal("no findings across fixtures")
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

// TestAnalyzerApplicability pins the package-name scoping: determinism must
// skip non-deterministic packages entirely.
func TestAnalyzerApplicability(t *testing.T) {
	if determinismAnalyzer.appliesTo("engine") {
		t.Error("determinism applies to engine; it must not")
	}
	if !determinismAnalyzer.appliesTo("caps") {
		t.Error("determinism does not apply to caps")
	}
	if chansAnalyzer.appliesTo("caps") {
		t.Error("chans applies to caps; it must not")
	}
}
