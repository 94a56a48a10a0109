package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capsys/internal/metrics"
)

// goldenHub builds a hub with fully deterministic contents: fixed counter /
// gauge / time / task-metric values, a latency histogram with known
// observations, a pinned window clock, and a constant callback gauge.
func goldenHub() *Telemetry {
	tel := New()
	reg := tel.Registry()
	reg.Counter("job.recoveries").Inc(2)
	reg.Gauge("job.downtime_seconds").Set(1.5)
	reg.Time("job.replay").Add(2 * time.Second)
	reg.Counter(metrics.TaskMetricName("sink", 0, "records_in")).Inc(10)
	reg.Counter(metrics.TaskMetricName("sink", 1, "records_in")).Inc(12)
	reg.Gauge(metrics.TaskMetricName("sink", 0, "useful_fraction")).Set(0.75)

	// Cluster-aggregated series: a per-worker counter and gauge, a
	// worker-prefixed per-task counter (task family + worker label), and
	// the cluster rollup the coordinator maintains beside them.
	reg.Counter(metrics.WorkerMetricName("w1", "net.frames_sent")).Inc(42)
	reg.Gauge(metrics.WorkerMetricName("w1", "trace_dropped")).Set(3)
	reg.Counter(metrics.WorkerMetricName("w1", metrics.TaskMetricName("sink", 0, "records_in"))).Inc(10)
	reg.Counter(metrics.ClusterMetricName("net.frames_sent")).Inc(42)

	h := tel.Histogram("latency.sink")
	for i := 0; i < 3; i++ {
		h.Observe(0.001)
	}
	h.Observe(0.004)

	// Pin the window clock: one closed 5s interval holding every observation
	// plus a 2s in-progress interval.
	win := tel.Window("latency.sink")
	win.mu.Lock()
	start := time.Unix(1000, 0)
	win.baseAt = start
	win.now = func() time.Time { return start.Add(7 * time.Second) }
	win.mu.Unlock()

	tel.SetGaugeFunc("worker_saturation", map[string]string{"worker": "w0", "resource": "cpu"},
		func() float64 { return 0.25 })
	tel.SetGaugeFunc("worker_saturation", map[string]string{"worker": "w0", "resource": "io"},
		func() float64 { return 0.5 })
	return tel
}

// TestWritePrometheusGolden pins the exposition format: family ordering,
// TYPE lines, label rendering, histogram bucket/sum/count series and the
// quantile and window gauge families.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenHub().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	golden := filepath.Join("testdata", "prometheus.golden")
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
		t.Errorf("exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var tel *Telemetry
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil hub wrote %q", buf.String())
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"job.recoveries":  "job_recoveries",
		"latency.sink":    "latency_sink",
		"a..b":            "a_b",
		"Q2-join/src-bid": "Q2_join_src_bid",
		"_x_":             "x",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	tel := goldenHub()
	tel.Tracer().Emit(Event{Kind: EventCheckpointStart, Epoch: 1})
	tel.Tracer().Emit(Event{Kind: EventCheckpointComplete, Epoch: 1})
	tel.Tracer().Emit(Event{Kind: EventJobComplete})

	srv, addr, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"capsys_latency_seconds_bucket{le=",
		`capsys_latency_seconds_quantile{op="sink",quantile="0.99"}`,
		`capsys_worker_saturation{resource="cpu",worker="w0"} 0.25`,
		"capsys_job_recoveries_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, ctype, body = get("/events")
	if code != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/events status %d type %q", code, ctype)
	}
	var feed struct {
		Schema  int     `json:"schema"`
		Dropped int64   `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &feed); err != nil {
		t.Fatal(err)
	}
	if feed.Schema != TraceSchemaVersion || len(feed.Events) != 3 {
		t.Errorf("/events schema %d events %d, want %d and 3", feed.Schema, len(feed.Events), TraceSchemaVersion)
	}

	_, _, body = get("/events?n=1")
	if err := json.Unmarshal([]byte(body), &feed); err != nil {
		t.Fatal(err)
	}
	if len(feed.Events) != 1 || feed.Events[0].Kind != EventJobComplete {
		t.Errorf("/events?n=1 returned %+v", feed.Events)
	}

	if code, _, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope status %d, want 404", code)
	}
	if code, _, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: status %d body %q", code, body)
	}
}

func TestTelemetryHubBasics(t *testing.T) {
	var nilTel *Telemetry
	if nilTel.Registry() != nil || nilTel.Tracer() != nil || nilTel.Histogram("x") != nil ||
		nilTel.Window("x") != nil || nilTel.HistogramNames() != nil {
		t.Error("nil hub leaked non-nil components")
	}
	nilTel.SetGaugeFunc("f", nil, func() float64 { return 1 }) // must not panic
	nilTel.Histogram("x").Observe(1)                           // nil histogram no-op

	tel := New()
	h1 := tel.Histogram("latency.a")
	h2 := tel.Histogram("latency.a")
	if h1 != h2 {
		t.Error("Histogram not idempotent")
	}
	tel.Histogram("latency.b")
	names := tel.HistogramNames()
	if len(names) != 2 || names[0] != "latency.a" || names[1] != "latency.b" {
		t.Errorf("HistogramNames = %v", names)
	}
	if tel.Window("latency.a") == nil {
		t.Error("Window missing for registered histogram")
	}
}

// TestBadNamePanics: a histogram or callback-gauge family that breaks the
// name rule panics where it is created; an operator ID after "latency." is
// a label and is not judged.
func TestBadNamePanics(t *testing.T) {
	tel := New()
	op := "Slide-Win"
	tel.Histogram("latency." + op).Observe(0.001)
	tel.SetGaugeFunc("worker_saturation", map[string]string{"worker": "W-1"}, func() float64 { return 1 })
	for what, create := range map[string]func(){
		"Histogram literal":   func() { tel.Histogram("Latency") },
		"Histogram concat":    func() { tel.Histogram("exchange." + op) },
		"Window Sprintf":      func() { tel.Window(fmt.Sprintf("Batch-%d", 3)) },
		"SetGaugeFunc":        func() { tel.SetGaugeFunc("Worker-Saturation", nil, func() float64 { return 1 }) },
		"SetGaugeFunc worker": func() { tel.SetGaugeFunc("worker.W1.x", nil, func() float64 { return 1 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: bad name did not panic", what)
				}
			}()
			create()
		}()
	}
	if names := tel.HistogramNames(); len(names) != 1 || names[0] != "latency."+op {
		t.Errorf("HistogramNames = %v, want only the latency histogram", names)
	}
	if n := len(tel.SampleGaugeFuncs()); n != 1 {
		t.Errorf("%d callback gauges registered, want 1", n)
	}
}

// TestRuntimeGauges: the process gauges register under valid families and
// read live values at sample time.
func TestRuntimeGauges(t *testing.T) {
	tel := New()
	tel.RegisterRuntimeGauges()
	(*Telemetry)(nil).RegisterRuntimeGauges() // nil hub: no-op
	got := map[string]float64{}
	for _, g := range tel.SampleGaugeFuncs() {
		got[g.Family] = g.Value
	}
	if len(got) != 3 || got["runtime_goroutines"] < 1 || got["runtime_heap_alloc_bytes"] <= 0 {
		t.Errorf("runtime gauges = %v", got)
	}
	if _, ok := got["runtime_gc_pause_seconds_total"]; !ok {
		t.Errorf("runtime gauges = %v, missing the GC pause total", got)
	}
}

// TestReplaceGaugeFuncs: an owner's set replaces that owner's previous set
// whole — a series it no longer registers is gone — and leaves other
// owners' sets and SetGaugeFunc's gauges alone; a series registered under a
// new owner moves to it.
func TestReplaceGaugeFuncs(t *testing.T) {
	tel := New()
	gauge := func(task string, v float64) GaugeFunc {
		return GaugeFunc{Family: "exchange_queue_depth", Labels: map[string]string{"task": task}, Fn: func() float64 { return v }}
	}
	tel.SetGaugeFunc("runtime_goroutines", nil, func() float64 { return 1 })
	tel.ReplaceGaugeFuncs("a", []GaugeFunc{gauge("x", 1), gauge("y", 1)})
	tel.ReplaceGaugeFuncs("b", []GaugeFunc{gauge("z", 2)})
	tel.ReplaceGaugeFuncs("a", []GaugeFunc{gauge("y", 3)})
	(*Telemetry)(nil).ReplaceGaugeFuncs("a", nil) // nil hub: no-op
	series := func() string {
		var out []string
		for _, g := range tel.SampleGaugeFuncs() {
			out = append(out, fmt.Sprintf("%s %v=%v", g.Family, g.Labels, g.Value))
		}
		return strings.Join(out, " ")
	}
	want := "exchange_queue_depth map[task:y]=3 exchange_queue_depth map[task:z]=2 runtime_goroutines map[]=1"
	if got := series(); got != want {
		t.Errorf("after replacing a's set: %s, want %s", got, want)
	}
	tel.ReplaceGaugeFuncs("b", []GaugeFunc{gauge("y", 4)})
	tel.ReplaceGaugeFuncs("a", nil)
	want = "exchange_queue_depth map[task:y]=4 runtime_goroutines map[]=1"
	if got := series(); got != want {
		t.Errorf("after y moved to b and a emptied: %s, want %s", got, want)
	}
}
