package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/telemetry"
)

// TestMergedLatencyQuantileReadsLatencyOnly: a batched run's hub holds
// exchange.batch_size beside the per-operator latency histograms, and the
// RESCALE and RECOVERY p99 columns must come from the latency histograms
// alone.
func TestMergedLatencyQuantileReadsLatencyOnly(t *testing.T) {
	spec, err := fusibleQ1()
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Homogeneous(4, 6, 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d, err := controller.Launch(ctx, spec, c, chainEven{}, controller.LaunchOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	if _, err := d.Run(ctx, engine.JobOptions{
		RecordsPerSource: 800,
		SourceRate:       map[dataflow.OperatorID]float64{"src": 20000},
		Transport:        engine.TransportBatched,
		Telemetry:        tel,
	}); err != nil {
		t.Fatal(err)
	}
	if tel.Histogram("exchange.batch_size").Count() == 0 {
		t.Fatal("the batched run observed no batch sizes")
	}
	var latency *telemetry.HistogramSnapshot
	for _, name := range tel.HistogramNames() {
		if !strings.HasPrefix(name, "latency.") {
			continue
		}
		if snap := tel.Histogram(name).Snapshot(); latency == nil {
			latency = &snap
		} else if err := latency.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	if latency == nil {
		t.Fatal("the run recorded no latency histogram")
	}
	want := latency.Quantile(0.99)
	if got := mergedLatencyQuantile(tel, 0.99); want <= 0 || got != want {
		t.Errorf("merged p99 = %v s, want the latency histograms' %v s", got, want)
	}
}
