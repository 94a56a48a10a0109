package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"capsys/internal/controller"
	"capsys/internal/engine"
)

// TestRenderRescaleReportGolden pins the rescale report's format the way
// recovery_report.golden pins the recovery report's: fixed outcome in, fixed
// bytes out.
func TestRenderRescaleReportGolden(t *testing.T) {
	got := renderRescaleReport(&controller.Outcome{
		Query: "Q1-sliding", Strategy: "caps", Transport: "batched",
		PlacementTime: 42 * time.Millisecond,
		ReplaceTime:   18500 * time.Microsecond,
		MovedTasks:    3,
		Result: &engine.JobResult{
			Rescales:           2,
			RescaleDowntime:    21300 * time.Microsecond,
			RescaleMovedBytes:  148224,
			RecordsReprocessed: 310,
			LostRecords:        0,
			SinkRecords:        1234,
		},
	}, []engine.RescalePlan{
		{Op: "slide-win", Parallelism: 12, AtEpoch: 3},
		{Op: "map", Parallelism: 2, AtEpoch: 3},
	})
	golden := filepath.Join("testdata", "rescale_report.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("rescale report drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := renderRescaleReport(nil, nil); got != "rescale report: no outcome\n" {
		t.Errorf("empty render = %q", got)
	}
}
