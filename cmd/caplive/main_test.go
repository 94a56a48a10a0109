package main

import (
	"flag"
	"strings"
	"testing"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// parseFlags parses args exactly as main would.
func parseFlags(t *testing.T, args ...string) (*cliflags.Common, *liveFlags) {
	t.Helper()
	fs := flag.NewFlagSet("caplive", flag.ContinueOnError)
	f, o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, o
}

// TestFlagErrors pins the flag combinations dispatch refuses before any mode
// starts listening, joining or running — in every mode alike.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero cost scale, local", []string{"-cost-scale", "0"}, "-cost-scale must be > 0"},
		{"zero cost scale, coordinator", []string{"-listen", "127.0.0.1:0", "-cost-scale", "0"}, "-cost-scale must be > 0"},
		{"negative cost scale, worker", []string{"-join", "127.0.0.1:1", "-cost-scale", "-2"}, "-cost-scale must be > 0"},
		{"listen and join", []string{"-listen", "127.0.0.1:0", "-join", "127.0.0.1:1"}, "mutually exclusive"},
		{"rescale without checkpoints", []string{"-rescale", "slide-win=6"}, "-rescale requires -checkpoint-every"},
		{"rescale without checkpoints, coordinator", []string{"-listen", "127.0.0.1:0", "-rescale", "slide-win=6"}, "-rescale requires -checkpoint-every"},
		{"kill without checkpoints", []string{"-kill-worker", "1"}, "-kill-worker requires -checkpoint-every"},
		{"kill out of range", []string{"-kill-worker", "4", "-checkpoint-every", "100"}, "-kill-worker 4 out of range (workers: 4)"},
		{"bad fuse", []string{"-fuse", "maybe"}, "-fuse must be on or off"},
		{"bad rescale", []string{"-rescale", "slide-win"}, "want op=parallelism"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, o := parseFlags(t, tc.args...)
			err := dispatch(f, o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("caplive %s: error = %v, want one containing %q", strings.Join(tc.args, " "), err, tc.want)
			}
		})
	}
}

// TestSummarize: the per-operator table joins the per-task series of every
// operator — one with a bracket in its ID included — with its latency
// histogram, and prints "-" for an operator that observed none.
func TestSummarize(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := telemetry.New()
	for i, op := range []string{"slide-win", "Q[1]"} {
		reg.Counter(metrics.TaskMetricName(op, i, "records_in")).Inc(100)
		reg.Gauge(metrics.TaskMetricName(op, i, "useful_fraction")).Set(0.5)
	}
	tel.Histogram("latency.slide-win").Observe(0.002)
	out := summarize(reg, tel)
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 7 && f[1] == "100" {
			rows = append(rows, f[0]+" "+f[4])
		}
	}
	if strings.Join(rows, ",") != "Q[1] -,slide-win 2.00" {
		t.Errorf("summarize rows = %q from\n%s", rows, out)
	}
}
