package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/nexmark"
	"capsys/internal/specio"
)

// parseArgs parses args exactly as main would.
func parseArgs(t *testing.T, args ...string) (*cliflags.Common, *ctlFlags) {
	t.Helper()
	fs := flag.NewFlagSet("capsysctl", flag.ContinueOnError)
	f, o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, o
}

func TestRunBuiltinQuery(t *testing.T) {
	if err := run(parseArgs(t, "-query", "Q1-sliding", "-no-sim")); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithChaining(t *testing.T) {
	if err := run(parseArgs(t, "-query", "Q1-sliding", "-strategy", "greedy", "-no-sim", "-chain")); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithSimulation(t *testing.T) {
	if err := run(parseArgs(t, "-query", "Q2-join", "-strategy", "evenly", "-seed", "3")); err != nil {
		t.Fatal(err)
	}
}

func TestRunQueryFile(t *testing.T) {
	dir := t.TempDir()
	qf := specio.FromQuerySpec(nexmark.Q1Sliding())
	data, err := json.Marshal(qf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "q.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(parseArgs(t, "-query-file", path, "-strategy", "default", "-seed", "1", "-no-sim")); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "c.json")
	if err := os.WriteFile(cpath, []byte(`{"workers":4,"slots":4,"cores":4,"io_bytes_per_sec":2e8,"net_bytes_per_sec":1.25e9}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(parseArgs(t, "-query-file", path, "-cluster-file", cpath, "-strategy", "default", "-seed", "1", "-workers", "0", "-slots", "0", "-cores", "0", "-io-bps", "0", "-net-bps", "0", "-no-sim")); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"no query", func() error { return run(parseArgs(t, "-no-sim")) }},
		{"unknown query", func() error { return run(parseArgs(t, "-query", "Q99", "-no-sim")) }},
		{"unknown strategy", func() error { return run(parseArgs(t, "-query", "Q1-sliding", "-strategy", "magic", "-no-sim")) }},
		{"bad cluster", func() error { return run(parseArgs(t, "-query", "Q1-sliding", "-workers", "0", "-no-sim")) }},
		{"too small", func() error { return run(parseArgs(t, "-query", "Q1-sliding", "-workers", "1", "-no-sim")) }},
		{"missing file", func() error { return run(parseArgs(t, "-query-file", "/nonexistent.json", "-no-sim")) }},
	}
	for _, tc := range cases {
		if err := tc.f(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
