package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"capsys/internal/telemetry"
)

// runArgs parses args exactly as main would and runs the command.
func runArgs(args ...string) error {
	fs := flag.NewFlagSet("capsim", flag.ContinueOnError)
	f, o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return run(f, o)
}

func TestRunSingleQuery(t *testing.T) {
	if err := runArgs("-query", "Q1-sliding"); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllQueriesScaled(t *testing.T) {
	if err := runArgs("-all", "-strategy", "evenly", "-seed", "2", "-workers", "18", "-slots", "8", "-rate-scale", "0.7", "-util"); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultipleNamedQueries(t *testing.T) {
	if err := runArgs("-query", "Q1-sliding, Q3-inf", "-strategy", "default", "-seed", "1", "-workers", "8"); err != nil {
		t.Fatal(err)
	}
}

func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := runArgs("-query", "Q1-sliding,Q3-inf", "-workers", "8", "-trace-out", path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Schema int    `json:"schema"`
			Kind   string `json:"kind"`
			Query  string `json:"query"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if ev.Schema != telemetry.TraceSchemaVersion || ev.Kind != "controller.decision" || ev.Query == "" {
			t.Errorf("line %d: unexpected event %+v", lines+1, ev)
		}
		lines++
	}
	if lines != 2 {
		t.Errorf("trace has %d events, want 2 (one per query)", lines)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func() error
	}{
		{"no queries", func() error { return runArgs() }},
		{"unknown query", func() error { return runArgs("-query", "Q99") }},
		{"unknown strategy", func() error { return runArgs("-query", "Q1-sliding", "-strategy", "zap") }},
		{"bad cluster", func() error { return runArgs("-query", "Q1-sliding", "-workers", "0") }},
	}
	for _, tc := range cases {
		if err := tc.f(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
