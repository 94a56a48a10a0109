package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capsys/internal/clock"
	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// TestDistHBSamplerDeltas pins the heartbeat sampler's encoding rules:
// monotone series (counters, time accumulators, histogram buckets) travel as
// deltas since the previous tick, gauges as absolutes, and empty deltas are
// omitted.
func TestDistHBSamplerDeltas(t *testing.T) {
	tel := telemetry.New()
	reg := tel.Registry()
	s := newHBSampler(tel)

	reg.Counter("net.frames_sent").Inc(5)
	reg.Gauge("queue.depth").Set(7)
	reg.Time("busy").Add(2 * time.Second)
	tel.Histogram("net.credit_wait_seconds").Observe(0.001)
	tel.Histogram("net.credit_wait_seconds").Observe(0.002)

	st := s.sample()
	if st.Counters["net.frames_sent"] != 5 {
		t.Errorf("first counter delta = %d, want 5", st.Counters["net.frames_sent"])
	}
	if st.Gauges["queue.depth"] != 7 {
		t.Errorf("gauge = %v, want 7", st.Gauges["queue.depth"])
	}
	if st.Times["busy"] != 2*time.Second {
		t.Errorf("time delta = %v, want %v", st.Times["busy"], 2*time.Second)
	}
	if h, ok := st.Hists["net.credit_wait_seconds"]; !ok || h.Count != 2 {
		t.Errorf("hist interval = %+v, want count 2", h)
	}

	reg.Counter("net.frames_sent").Inc(3)
	reg.Gauge("queue.depth").Set(4)
	st = s.sample()
	if st.Counters["net.frames_sent"] != 3 {
		t.Errorf("second counter delta = %d, want 3 (delta, not total)", st.Counters["net.frames_sent"])
	}
	if st.Gauges["queue.depth"] != 4 {
		t.Errorf("gauge = %v, want the absolute 4", st.Gauges["queue.depth"])
	}
	if _, ok := st.Times["busy"]; ok {
		t.Error("unchanged time accumulator shipped a zero delta")
	}
	if _, ok := st.Hists["net.credit_wait_seconds"]; ok {
		t.Error("quiet histogram shipped an empty interval")
	}

	// A nil hub samples to nil, and the coordinator must ignore it.
	if st := newHBSampler(nil).sample(); st != nil {
		t.Errorf("nil-hub sample = %+v, want nil", st)
	}
	var agg clusterAgg
	agg.apply("w0", nil) // must not panic
}

// FuzzHeartbeatPayload feeds arbitrary bytes to the coordinator's HEARTBEAT
// path — decode, fold into a hub, render the hub — which must never panic:
// a payload that does not decode, or whose stats would create a series under
// a name that fails the name check, is pure liveness (an error wrapping
// engine.ErrControlPayload); stats that pass are applied, and every series
// they create passes the check. The seeds are a
// real heartbeat, the two malformed histogram shapes that used to crash the
// coordinator — counts past the overflow bucket (Absorb) and counts short of
// the bounds (the report merge) — and one bad name of each kind.
func FuzzHeartbeatPayload(f *testing.F) {
	tel := telemetry.New()
	tel.Registry().Counter("net.frames_sent").Inc(5)
	tel.Registry().Gauge("queue.depth").Set(2)
	tel.Registry().Time("exchange.credit_stall_seconds").Add(time.Millisecond)
	tel.Histogram("net.credit_wait_seconds").Observe(0.002)
	tel.SetGaugeFunc("worker_saturation", map[string]string{"resource": "cpu"}, func() float64 { return 0.25 })
	beat := newHBSampler(tel).sample()
	seed := func(st *wireStats) {
		b, err := json.Marshal(wireHeartbeat{Stats: st})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(beat)
	wait := beat.Hists["net.credit_wait_seconds"]
	for _, counts := range [][]int64{make([]int64, len(wait.Counts)+1), {0, 1}} {
		bad := wait
		bad.Counts = counts
		bad.Counts[1] = bad.Count
		seed(&wireStats{Hists: map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": bad}})
	}
	seed(&wireStats{TypedValues: metrics.TypedValues{Counters: map[string]int64{"Net.Frames": 1}}})
	seed(&wireStats{TypedValues: metrics.TypedValues{Gauges: map[string]float64{"queue depth": 1}}})
	seed(&wireStats{Hists: map[string]telemetry.HistogramSnapshot{"Latency": wait}})
	seed(&wireStats{FnGauges: []telemetry.GaugeSample{{Family: "Worker-Saturation", Value: 1}}})
	f.Fuzz(func(t *testing.T, payload []byte) {
		agg := clusterAgg{tel: telemetry.New()}
		hb, err := decodeHeartbeat(payload, "w0")
		if err != nil && !errors.Is(err, engine.ErrControlPayload) {
			t.Fatalf("decode error %v does not wrap engine.ErrControlPayload", err)
		}
		// A second beat folds into the cells and histograms the first made.
		agg.apply("w0", hb)
		agg.apply("w0", hb)
		for _, n := range agg.tel.Registry().Names() {
			if err := metrics.CheckName(n, metrics.CellName); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range agg.tel.HistogramNames() {
			if err := metrics.CheckName(n, metrics.HistogramName); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range agg.tel.SampleGaugeFuncs() {
			if err := metrics.CheckName(g.Family, metrics.FamilyName); err != nil {
				t.Fatal(err)
			}
		}
		if err := agg.tel.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDistClusterMetricsGolden pins the coordinator's merged Prometheus
// exposition: two workers' heartbeat deltas land under worker-labeled
// families plus cluster rollups, callback gauges are relayed (gaining a
// worker label when the origin omitted one), and absorbed histograms
// export under their own family. Regenerate with UPDATE_GOLDEN=1.
func TestDistClusterMetricsGolden(t *testing.T) {
	tel := telemetry.New()
	agg := clusterAgg{tel: tel}

	// Pin the absorbed histogram's window clock before any absorption so
	// the windowed view deterministically covers the absorbed interval.
	cur := time.Unix(1000, 0)
	tel.Window("net.credit_wait_seconds").SetClock(func() time.Time { return cur })

	h, err := telemetry.NewHistogram(telemetry.DefaultLatencyOptions())
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.001)
	h.Observe(0.001)
	h.Observe(0.004)

	w0Gauges := []telemetry.GaugeSample{
		{Family: "worker_saturation", Labels: map[string]string{"worker": "w0", "resource": "cpu"}, Value: 0.25},
		{Family: "net_pump_queue_depth", Labels: nil, Value: 3},
	}
	agg.apply("w0", &wireHeartbeat{Stats: &wireStats{
		TypedValues: metrics.TypedValues{
			Counters: map[string]int64{"net.frames_sent": 40, "net.bytes_sent": 4096},
			Times:    map[string]time.Duration{"exchange.credit_stall_seconds": time.Second},
			Gauges:   map[string]float64{"trace_dropped": 2},
		},
		FnGauges: w0Gauges,
		Hists:    map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": h.Snapshot()},
	}})
	agg.apply("w1", &wireHeartbeat{Stats: &wireStats{TypedValues: metrics.TypedValues{
		Counters: map[string]int64{"net.frames_sent": 2, "sink[0].records_in": 17},
	}}})
	// A second heartbeat from w0 must add, not replace; like every real
	// heartbeat it samples all of w0's callback gauges.
	agg.apply("w0", &wireHeartbeat{Stats: &wireStats{
		TypedValues: metrics.TypedValues{Counters: map[string]int64{"net.frames_sent": 2}},
		FnGauges:    w0Gauges,
	}})

	// Two seconds of pinned wall clock pass before the scrape, giving the
	// windowed view a deterministic nonzero span.
	cur = cur.Add(2 * time.Second)

	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	golden := filepath.Join("testdata", "golden", "cluster_prometheus.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
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
		t.Errorf("cluster exposition drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestDistRelayedGaugesLeave: a worker's relayed callback gauges are its
// latest heartbeat's whole set, so a series the worker stopped sampling (a
// task a rescale moved away) leaves the coordinator's hub, and every series
// of a worker declared dead leaves with it — a heartbeat read just before
// the death included.
func TestDistRelayedGaugesLeave(t *testing.T) {
	agg := clusterAgg{tel: telemetry.New()}
	depth := func(task string) telemetry.GaugeSample {
		return telemetry.GaugeSample{Family: "exchange_queue_depth", Labels: map[string]string{"task": task}, Value: 1}
	}
	beat := func(gs ...telemetry.GaugeSample) *wireHeartbeat {
		return &wireHeartbeat{Stats: &wireStats{FnGauges: gs}}
	}
	series := func() string {
		var out []string
		for _, g := range agg.tel.SampleGaugeFuncs() {
			out = append(out, g.Labels["worker"]+"/"+g.Labels["task"])
		}
		return strings.Join(out, " ")
	}
	agg.apply("w0", beat(depth("win[0]"), depth("win[1]")))
	agg.apply("w1", beat(depth("win[2]")))
	agg.apply("w0", beat(depth("win[0]")))
	if got, want := series(), "w0/win[0] w1/win[2]"; got != want {
		t.Errorf("after w0 stopped sampling win[1]: relayed %q, want %q", got, want)
	}
	agg.drop("w1")
	agg.apply("w1", beat(depth("win[2]")))
	if got, want := series(), "w0/win[0]"; got != want {
		t.Errorf("after w1 was declared dead: relayed %q, want %q", got, want)
	}
}

// TestDistClusterTraceMerge checks the merged-timeline invariants: relayed
// events keep their origin provenance (Src, WSeq) while gaining a fresh,
// strictly increasing cluster sequence, and the feed's drop count surfaces
// as a per-worker gauge.
func TestDistClusterTraceMerge(t *testing.T) {
	tel := telemetry.New()
	agg := clusterAgg{tel: tel}

	agg.apply("w1", &wireHeartbeat{Events: []telemetry.Event{
		{Src: "w1", WSeq: 0, Kind: telemetry.EventWorkerAttemptStart, Worker: "w1", Attempt: 1},
		{Src: "w1", WSeq: 3, Kind: telemetry.EventCheckpointStart, Epoch: 1},
	}})
	agg.apply("w0", &wireHeartbeat{
		Events:  []telemetry.Event{{Src: "w0", WSeq: 5, Kind: telemetry.EventCheckpointComplete, Epoch: 1}},
		Dropped: 4,
	})

	evs := tel.Tracer().Events()
	if len(evs) != 3 {
		t.Fatalf("merged %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Errorf("event %d: cluster seq %d, want %d (fresh dense sequence)", i, ev.Seq, i)
		}
	}
	if evs[0].Src != "w1" || evs[0].WSeq != 0 || evs[1].WSeq != 3 {
		t.Errorf("origin provenance lost: %+v %+v", evs[0], evs[1])
	}
	if evs[2].Src != "w0" || evs[2].WSeq != 5 {
		t.Errorf("origin provenance lost: %+v", evs[2])
	}
	if got := tel.Registry().Snapshot()["worker.w0.trace_dropped"]; got != 4 {
		t.Errorf("worker.w0.trace_dropped = %v, want 4", got)
	}
}

// TestDistHealthzStaleWorker drives the liveness decision on an injected
// clock: a worker whose last frame is older than the heartbeat timeout is
// stale for the supervision loop and dead on /healthz (503), all without a
// single real timer.
func TestDistHealthzStaleWorker(t *testing.T) {
	t0 := time.Unix(5000, 0)
	fx := newDistFixture(t, "Q3-inf")
	co := &Coordinator{
		spec: fx.deploy,
		n:    2,
		opts: CoordinatorOptions{HeartbeatTimeout: 5 * time.Second, Telemetry: telemetry.New()},
		clk:  clock.Fixed(t0),
	}
	fresh := &coordConn{addr: "127.0.0.1:101"}
	fresh.alive.Store(true)
	fresh.lastSeen.Store(t0.Add(-time.Second).UnixNano())
	fresh.lastEpoch.Store(3)
	stale := &coordConn{addr: "127.0.0.1:102"}
	stale.alive.Store(true)
	stale.lastSeen.Store(t0.Add(-6 * time.Second).UnixNano())
	co.conns = []*coordConn{fresh, stale}

	if w, ok := co.staleWorker(map[int]bool{0: true, 1: true}); !ok || w != 1 {
		t.Errorf("staleWorker = (%d, %v), want (1, true)", w, ok)
	}
	if w, ok := co.staleWorker(map[int]bool{0: true}); ok {
		t.Errorf("staleWorker over fresh-only set = (%d, %v), want none", w, ok)
	}

	srv := httptest.NewServer(co.ClusterHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz status = %d, want 503 (one worker stale)", resp.StatusCode)
	}
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.Expected != 2 || rep.Joined != 2 || len(rep.Workers) != 2 {
		t.Errorf("health report = %+v, want unhealthy 2/2 with 2 workers", rep)
	}
	if !rep.Workers[0].Alive || rep.Workers[0].ID != "w0" || rep.Workers[0].Epoch != 3 {
		t.Errorf("worker 0 health = %+v, want alive w0 at epoch 3", rep.Workers[0])
	}
	if rep.Workers[1].Alive || rep.Workers[1].LastHeartbeatMS != 6000 {
		t.Errorf("worker 1 health = %+v, want dead with 6000ms heartbeat age", rep.Workers[1])
	}

	// A declared-dead worker stays dead even with a fresh lastSeen (its
	// connection was closed by recovery; late TCP data must not resurrect it).
	stale.lastSeen.Store(t0.UnixNano())
	stale.alive.Store(false)
	if co.Health().Healthy {
		t.Error("declared-dead worker counted healthy on a fresh lastSeen")
	}

	// /workers serves the roster regardless of health.
	resp2, err := http.Get(srv.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var roster []WorkerHealth
	if err := json.NewDecoder(resp2.Body).Decode(&roster); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || len(roster) != 2 || roster[1].Addr != "127.0.0.1:102" {
		t.Errorf("/workers = %d %+v, want 200 with both addresses", resp2.StatusCode, roster)
	}
}

// startTelemetryCluster is startDistCluster with a telemetry hub on every
// side: the coordinator aggregates into coTel, each worker ships from its
// own hub every hbEvery.
func startTelemetryCluster(t *testing.T, ctx context.Context, fx *distFixture, coTel *telemetry.Telemetry, hbEvery time.Duration) *Coordinator {
	t.Helper()
	co, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, CoordinatorOptions{
		HeartbeatTimeout: 5 * time.Second,
		Telemetry:        coTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinTelemetryWorkers(t, ctx, co, distWorkers, hbEvery)
	return co
}

// joinTelemetryWorkers joins n in-process workers to co, each with its own
// hub shipped on its heartbeats, and waits for the cluster to be complete.
func joinTelemetryWorkers(t *testing.T, ctx context.Context, co *Coordinator, n int, hbEvery time.Duration, setup ...func(*telemetry.Telemetry)) {
	t.Helper()
	var cancels []context.CancelFunc
	var errs []chan error
	for w := 0; w < n; w++ {
		wctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		errc := make(chan error, 1)
		errs = append(errs, errc)
		wtel := telemetry.New()
		for _, f := range setup {
			f(wtel)
		}
		go func() {
			errc <- JoinCluster(wctx, co.Addr(), NexmarkBuilderWith(wtel), JoinOptions{
				HeartbeatEvery: hbEvery,
				Telemetry:      wtel,
			})
		}()
	}
	if err := co.WaitJoined(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Shutdown()
		for _, cancel := range cancels {
			cancel()
		}
		for _, errc := range errs {
			<-errc
		}
	})
}

// TestDistFlushBeforeDone is the regression test for the lost telemetry
// tail: workers whose heartbeat never ticks must still land their trace
// events — every one, in order — and metric deltas at the coordinator,
// because each DONE is preceded on the same connection by a final
// heartbeat carrying both. Nothing may depend on waiting after Run returns.
func TestDistFlushBeforeDone(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	coTel := telemetry.New()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co := startTelemetryCluster(t, ctx, fx, coTel, time.Hour)
	if _, err := co.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := coTel.Registry().Snapshot()
	done := map[string]bool{}
	next := map[string]int64{} // each worker's events arrive whole and in order
	for _, ev := range coTel.Tracer().Events() {
		if ev.Kind == telemetry.EventWorkerAttemptDone {
			done[ev.Src] = true
		}
		if ev.Src != "coord" {
			if ev.WSeq != next[ev.Src] {
				t.Errorf("%s's event %d (%s) arrived where its event %d was due", ev.Src, ev.WSeq, ev.Kind, next[ev.Src])
			}
			next[ev.Src] = ev.WSeq + 1
		}
	}
	for w := 0; w < distWorkers; w++ {
		id := fx.deploy.Workers[w].ID
		if !done[id] {
			t.Errorf("no worker.attempt.done from %s in the coordinator timeline when Run returned", id)
		}
		if name := metrics.WorkerMetricName(id, "net.frames_sent"); snap[name] <= 0 {
			t.Errorf("%s = %v when Run returned, want > 0", name, snap[name])
		}
	}
}

// TestDistNonFiniteGauges: JSON has no NaN or ±Inf, so a worker gauge
// reading one is left out of the payloads it would make unencodable — and
// only it: every other series of the worker's still reaches the coordinator
// in the heartbeat before DONE.
func TestDistNonFiniteGauges(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	coTel := telemetry.New()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, CoordinatorOptions{HeartbeatTimeout: 5 * time.Second, Telemetry: coTel})
	if err != nil {
		t.Fatal(err)
	}
	joinTelemetryWorkers(t, ctx, co, distWorkers, time.Hour, func(tel *telemetry.Telemetry) {
		tel.Registry().Gauge("probe.nan").Set(math.NaN())
		tel.Registry().Gauge("probe.half").Set(0.5)
		tel.SetGaugeFunc("probe_inf", nil, func() float64 { return math.Inf(1) })
	})
	if _, err := co.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := coTel.Registry().Snapshot()
	for w := 0; w < distWorkers; w++ {
		id := fx.deploy.Workers[w].ID
		if snap[metrics.WorkerMetricName(id, "probe.half")] != 0.5 || snap[metrics.WorkerMetricName(id, "net.frames_sent")] <= 0 {
			t.Errorf("%s: probe.half %v, net.frames_sent %v: the heartbeat lost its finite series",
				id, snap[metrics.WorkerMetricName(id, "probe.half")], snap[metrics.WorkerMetricName(id, "net.frames_sent")])
		}
		if _, ok := snap[metrics.WorkerMetricName(id, "probe.nan")]; ok {
			t.Errorf("%s: a NaN gauge was relayed", id)
		}
	}
	for _, g := range coTel.SampleGaugeFuncs() {
		if g.Family == "probe_inf" {
			t.Errorf("an infinite callback gauge was relayed: %+v", g)
		}
	}
}

// TestDistAggregationLive runs the full 3-worker in-process cluster with
// telemetry on every side and asserts the coordinator's merged view: live
// per-worker net.* series with cluster rollups, relayed saturation gauges,
// absorbed latency histograms, a healthy /healthz, and a merged trace
// timeline with events from every worker process and the coordinator
// itself. It runs under -race in `make verify` — the heartbeat piggyback
// path must be race-clean.
func TestDistAggregationLive(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	coTel := telemetry.New()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co := startTelemetryCluster(t, ctx, fx, coTel, 25*time.Millisecond)

	res, err := co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkRecords == 0 || res.Recoveries != 0 {
		t.Fatalf("unexpected run outcome: sink=%d recoveries=%d", res.SinkRecords, res.Recoveries)
	}

	// Workers keep heartbeating until Shutdown, so the last deltas land
	// within one more interval; poll briefly rather than sleeping blind.
	deadline := time.Now().Add(2 * time.Second)
	var snap map[string]float64
	for {
		snap = coTel.Registry().Snapshot()
		if snap["cluster.net.frames_sent"] > 0 || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	for w := 0; w < distWorkers; w++ {
		name := metrics.WorkerMetricName(fx.deploy.Workers[w].ID, "net.frames_sent")
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want > 0 (every worker uses the wire)", name, snap[name])
		}
	}
	if snap["cluster.net.frames_sent"] <= 0 {
		t.Errorf("cluster.net.frames_sent = %v, want > 0", snap["cluster.net.frames_sent"])
	}
	var totalWorker float64
	for name, v := range snap {
		if wm, ok := metrics.ParseWorkerMetricName(name); ok && wm.Metric == "net.frames_sent" {
			totalWorker += v
		}
	}
	if totalWorker != snap["cluster.net.frames_sent"] {
		t.Errorf("cluster rollup %v != sum of worker series %v", snap["cluster.net.frames_sent"], totalWorker)
	}

	// Relayed callback gauges: per-task saturation from the workers'
	// engine attempts, worker-labeled.
	sawSaturation := false
	for _, g := range coTel.SampleGaugeFuncs() {
		if g.Family == "worker_saturation" && g.Labels["worker"] != "" {
			sawSaturation = true
			break
		}
	}
	if !sawSaturation {
		t.Error("no worker_saturation callback gauge relayed to the coordinator")
	}

	// Absorbed histograms: the workers' per-operator latency observations
	// must be present in the merged hub.
	var histCount int64
	for _, name := range coTel.HistogramNames() {
		histCount += coTel.Histogram(name).Count()
	}
	if histCount == 0 {
		t.Error("no histogram observations merged into the coordinator hub")
	}

	// Merged timeline: every worker process and the coordinator appear,
	// with a dense cluster sequence and a completed checkpoint epoch.
	evs := coTel.Tracer().Events()
	srcs := map[string]bool{}
	ckptDone := false
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d: cluster seq %d, want %d", i, ev.Seq, i)
		}
		srcs[ev.Src] = true
		if ev.Kind == telemetry.EventCheckpointComplete && ev.Src == "coord" && ev.Epoch >= 1 {
			ckptDone = true
		}
	}
	for w := 0; w < distWorkers; w++ {
		src := fx.deploy.Workers[w].ID
		if !srcs[src] {
			t.Errorf("merged timeline has no events from %s (sources seen: %v)", src, srcs)
		}
	}
	if !srcs["coord"] {
		t.Errorf("merged timeline has no coordinator events (sources seen: %v)", srcs)
	}
	if !ckptDone {
		t.Error("merged timeline has no coordinator checkpoint.complete event with epoch >= 1")
	}

	// The cluster is still fully joined and heartbeating: /healthz is 200.
	srv := httptest.NewServer(co.ClusterHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after a clean run = %d, want 200", resp.StatusCode)
	}
}
