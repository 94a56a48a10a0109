package lint

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) (*Loader, *Package) {
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
	return loader, p
}

func checksOf(diags []Diagnostic) map[string]int {
	out := make(map[string]int)
	for _, d := range diags {
		out[d.Check]++
	}
	return out
}

func TestConfigUnknownCheckRejected(t *testing.T) {
	_, p := loadFixture(t, "determ")
	if _, err := RunPackage(p, Config{Enable: []string{"nosuch"}}); err == nil {
		t.Error("Enable with unknown check: want error, got nil")
	}
	if _, err := RunPackage(p, Config{Disable: []string{"nosuch"}}); err == nil {
		t.Error("Disable with unknown check: want error, got nil")
	}
}

func TestConfigEnableDisable(t *testing.T) {
	_, p := loadFixture(t, "determ")
	all, err := RunPackage(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := checksOf(all)["determinism"]; n == 0 {
		t.Fatal("fixture yields no determinism findings")
	}
	only, err := RunPackage(p, Config{Enable: []string{"locks"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := checksOf(only)["determinism"]; n != 0 {
		t.Errorf("Enable=[locks] still reported %d determinism findings", n)
	}
	disabled, err := RunPackage(p, Config{Disable: []string{"determinism"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := checksOf(disabled)["determinism"]; n != 0 {
		t.Errorf("Disable=[determinism] still reported %d determinism findings", n)
	}
}

// TestStaleOnlyWhenCheckRan pins the interaction between -strict and
// -checks: an allow whose check was disabled for this run is not stale — it
// may suppress findings of a differently-scoped run.
func TestStaleOnlyWhenCheckRan(t *testing.T) {
	_, p := loadFixture(t, "suppress")
	strict, err := RunPackage(p, Config{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, d := range strict {
		if d.Check == SuppressCheck && strings.Contains(d.Message, "stale") {
			stale++
		}
	}
	if stale != 1 {
		t.Errorf("strict full run: want exactly 1 stale suppression, got %d", stale)
	}
	scoped, err := RunPackage(p, Config{Strict: true, Enable: []string{"locks"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range scoped {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("determinism did not run, yet its allow is reported stale: %v", d)
		}
	}
}

// TestOverlapSuppressionScoping pins per-check suppression on one line: the
// overlap fixture trips determinism and atomics on the same statement and
// carries an allow naming only determinism. The atomics finding must
// survive, and the allow must not be stale.
func TestOverlapSuppressionScoping(t *testing.T) {
	_, p := loadFixture(t, "overlap")
	diags, err := RunPackage(p, Config{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
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

// TestStaleScopingWithProgramChecks extends the stale-scoping contract to
// the whole-program era: a -checks subset that omits an allow's check never
// reports it stale, whether the subset runs per-package or whole-program
// analyzers.
func TestStaleScopingWithProgramChecks(t *testing.T) {
	_, p := loadFixture(t, "overlap")
	// atomics runs, determinism does not: the determinism allow is unused
	// but must not be stale, and the atomics finding survives.
	scoped, err := RunPackage(p, Config{Strict: true, Enable: []string{"atomics"}})
	if err != nil {
		t.Fatal(err)
	}
	counts := checksOf(scoped)
	if counts[SuppressCheck] != 0 {
		t.Errorf("determinism did not run, yet its allow is flagged: %v", scoped)
	}
	if counts["atomics"] != 1 {
		t.Errorf("want 1 atomics finding under -checks atomics, got %d", counts["atomics"])
	}
	// Only a whole-program analyzer runs: no findings, and still no stale
	// report for the determinism allow.
	progOnly, err := RunPackage(p, Config{Strict: true, Enable: []string{"lockorder"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(progOnly) != 0 {
		t.Errorf("want no findings under -checks lockorder, got %v", progOnly)
	}
	// The full run uses the allow (determinism fires and is suppressed), so
	// strict must not flag it either.
	full, err := RunPackage(p, Config{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range full {
		if d.Check == SuppressCheck {
			t.Errorf("full strict run flags the used allow: %v", d)
		}
	}
}

// TestStrictOffHidesStale mirrors the default CLI mode.
func TestStrictOffHidesStale(t *testing.T) {
	_, p := loadFixture(t, "suppress")
	diags, err := RunPackage(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "stale") {
			t.Errorf("stale suppression reported without Strict: %v", d)
		}
	}
	// The hygiene findings (no reason, unknown check, no check) are NOT
	// strict-gated: they are real findings in every mode.
	if n := checksOf(diags)[SuppressCheck]; n != 3 {
		t.Errorf("want 3 suppression hygiene findings in default mode, got %d", n)
	}
}

func TestDiagnosticJSONShape(t *testing.T) {
	d := Diagnostic{Check: "chans", File: "a/b.go", Line: 3, Col: 7, Message: "m", Suggestion: "s"}
	buf, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"check"`, `"file"`, `"line"`, `"col"`, `"message"`, `"suggestion"`} {
		if !strings.Contains(string(buf), key) {
			t.Errorf("JSON missing %s: %s", key, buf)
		}
	}
	var back Diagnostic
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip mismatch: %+v != %+v", back, d)
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
	diags, err := Run(pkgs, Config{})
	if err != nil {
		t.Fatal(err)
	}
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
