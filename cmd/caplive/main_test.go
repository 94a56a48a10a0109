package main

import (
	"flag"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/engine"
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
		// 16 tasks on the 3 survivors of the default 4x4 cluster.
		{"kill the survivors cannot host", []string{"-kill-worker", "1", "-checkpoint-every", "100"}, "cannot host Q1-sliding's 16 tasks; use -slots 6 or more"},
		{"kill on one worker", []string{"-workers", "1", "-kill-worker", "0", "-checkpoint-every", "100"}, "at least 2 workers"},
		{"kill under worst", []string{"-strategy", "worst", "-kill-worker", "1", "-checkpoint-every", "100"}, "no strategy to re-place the dead worker's tasks"},
		// A -listen cluster loses a worker when its process dies; a flag
		// there would be ignored. The timeout bounds a coordinator that
		// accepted it.
		{"kill, coordinator", []string{"-listen", "127.0.0.1:0", "-timeout", "1s", "-checkpoint-every", "100", "-kill-worker", "1"}, "SIGKILL of its -join process"},
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

// TestRunLocalTransports runs a local job under every exchange transport,
// and refuses an unknown one.
func TestRunLocalTransports(t *testing.T) {
	for _, tr := range engine.TransportNames() {
		if err := dispatch(parseFlags(t, "-records", "500", "-transport", tr)); err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
	}
	if err := dispatch(parseFlags(t, "-records", "500", "-transport", "carrier-pigeon")); err == nil {
		t.Error("unknown transport: no error")
	}
}

// localRun is what a local caplive run printed: its sink records and
// recovery line.
type localRun struct {
	sink, recoveries, lost int64
}

var (
	finishedRE = regexp.MustCompile(`(?m)^finished in \S+: \d+ source records \(\d+ rec/s\), (\d+) sink records$`)
	recoveryRE = regexp.MustCompile(`(?m)^recovery: (\d+) recoveries, restored epoch \d+, downtime \S+, reprocessed \d+ records, lost (\d+) records$`)
)

// runLocal runs the caplive binary in local mode and parses its result.
func runLocal(t *testing.T, args ...string) localRun {
	t.Helper()
	out, err := exec.Command(capliveBin, args...).Output()
	if err != nil {
		t.Fatalf("caplive %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	fin, rec := finishedRE.FindSubmatch(out), recoveryRE.FindSubmatch(out)
	if fin == nil || rec == nil {
		t.Fatalf("caplive %s: no finished or recovery line in\n%s", strings.Join(args, " "), out)
	}
	n := func(b []byte) int64 {
		v, _ := strconv.ParseInt(string(b), 10, 64)
		return v
	}
	return localRun{sink: n(fin[1]), recoveries: n(rec[1]), lost: n(rec[2])}
}

// TestLocalKillRecovered: a local -kill-worker is recovered as a -listen
// cluster recovers a dead worker process — re-placed on the survivors and
// restarted from the last complete checkpoint — and delivers what the same
// run without the kill delivers.
func TestLocalKillRecovered(t *testing.T) {
	job := []string{"-query", "Q1-sliding", "-records", "800", "-checkpoint-every", "100", "-slots", "6"}
	kill := append([]string{"-kill-worker", "1", "-kill-epoch", "2"}, job...)
	ref := runLocal(t, job...)
	got := runLocal(t, kill...)
	if got.recoveries != 1 || got.lost != 0 || got.sink != ref.sink {
		t.Errorf("killed run = %+v, want 1 recovery, lost 0 and the reference's %d sink records", got, ref.sink)
	}
}
