package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"capsys/internal/controller"
	"capsys/internal/engine"
)

// syntheticOutcomes is a fixed input for the report renderer: real runs carry
// wall-clock values, so the golden pins the format against frozen outcomes.
func syntheticOutcomes() []*controller.RecoveryOutcome {
	return []*controller.RecoveryOutcome{
		{
			Outcome: controller.Outcome{
				Query: "Q1-sliding", Strategy: "caps", Transport: "unary",
				PlacementTime: 42 * time.Millisecond,
				ReplaceTime:   18500 * time.Microsecond,
				MovedTasks:    5,
				Result: &engine.JobResult{
					Downtime:           21300 * time.Microsecond,
					RecordsReprocessed: 800,
					LostRecords:        0,
					SinkRecords:        1234,
				},
			},
			KilledWorker: 1, TasksOnKilled: 5,
			Recovered: true, Backpressure: 0.0825,
		},
		{
			Outcome: controller.Outcome{
				Query: "Q1-sliding", Strategy: "default", Transport: "batched",
				PlacementTime: 300 * time.Microsecond,
				ReplaceTime:   200 * time.Microsecond,
				MovedTasks:    9,
				Result: &engine.JobResult{
					Downtime:           12100 * time.Microsecond,
					RecordsReprocessed: 1100,
					LostRecords:        0,
					SinkRecords:        1234,
				},
			},
			KilledWorker: 0, TasksOnKilled: 6,
			Recovered: true, Backpressure: 0.4017,
		},
		{
			Outcome: controller.Outcome{
				Query: "Q1-sliding", Strategy: "evenly", Transport: "unary",
				PlacementTime: 250 * time.Microsecond,
				ReplaceTime:   180 * time.Microsecond,
				MovedTasks:    4,
				Result: &engine.JobResult{
					Downtime:           250 * time.Millisecond,
					RecordsReprocessed: 0,
					LostRecords:        412,
					SinkRecords:        1020,
				},
			},
			KilledWorker: 2, TasksOnKilled: 4,
			Recovered: false, Backpressure: 0.2558,
		},
		{
			Outcome: controller.Outcome{
				Query: "Q1-sliding", Strategy: "odrp", Transport: "batched",
				PlacementTime: 1800 * time.Millisecond,
				ReplaceTime:   950 * time.Millisecond,
				MovedTasks:    11,
				Result: &engine.JobResult{
					Downtime:           963400 * time.Microsecond,
					RecordsReprocessed: 800,
					LostRecords:        0,
					SinkRecords:        1234,
				},
			},
			KilledWorker: 1, TasksOnKilled: 5,
			Recovered: true, Backpressure: 0.1912,
		},
	}
}

func TestRenderRecoveryReportGolden(t *testing.T) {
	got := renderRecoveryReport(syntheticOutcomes())
	golden := filepath.Join("testdata", "recovery_report.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("recovery report drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRenderRecoveryReportEmpty(t *testing.T) {
	if got := renderRecoveryReport(nil); got != "recovery report: no outcomes\n" {
		t.Errorf("empty render = %q", got)
	}
}

// End-to-end smoke test: the recovery study runs under every strategy and
// renders without error (kept small; the full battery lives in
// internal/experiments and internal/controller).
func TestRunRecoveryMode(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	cf, o := parseArgs(t, "-query", "Q1-sliding", "-seed", "1", "-cores", "8", "-io-bps", "500e6", "-net-bps", "2e9",
		"-records", "400", "-snapshot-every", "100", "-kill-epoch", "1", "-metrics-addr", "127.0.0.1:0", "-trace-out", trace,
		"-transport", engine.TransportBatched, "-batch-size", "16")
	if err := runRecovery(f, cf, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("recovery mode produced no report")
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatal("-trace-out produced no events")
	}
}

func TestRunRecoveryErrors(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cf, o := parseArgs(t, "-records", "400", "-snapshot-every", "100", "-kill-epoch", "1")
	if err := runRecovery(devnull, cf, o); err == nil {
		t.Error("missing query accepted")
	}
	cf, o = parseArgs(t, "-query", "Q1-sliding", "-workers", "1", "-records", "400", "-snapshot-every", "100", "-kill-epoch", "1")
	if err := runRecovery(devnull, cf, o); err == nil {
		t.Error("single-worker cluster accepted")
	}
}
