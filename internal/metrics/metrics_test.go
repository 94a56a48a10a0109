package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"capsys/internal/clock"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc(3)
	c.Inc(4)
	if c.Value() != 7 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10000 {
		t.Errorf("Value = %d, want 10000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Errorf("zero gauge = %v", g.Value())
	}
	g.Set(3.14)
	if g.Value() != 3.14 {
		t.Errorf("Value = %v", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Errorf("Value = %v", g.Value())
	}
}

func TestTimeAccumulator(t *testing.T) {
	var ta TimeAccumulator
	ta.Add(100 * time.Millisecond)
	ta.Add(150 * time.Millisecond)
	if ta.Total() != 250*time.Millisecond {
		t.Errorf("Total = %v", ta.Total())
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Mark(10)
	m.Mark(5)
	if m.Count() != 15 {
		t.Errorf("Count = %d", m.Count())
	}
	if r := m.RateOver(3 * time.Second); r != 5 {
		t.Errorf("RateOver = %v, want 5", r)
	}
	if r := m.RateOver(0); r != 0 {
		t.Errorf("RateOver(0) = %v", r)
	}
	if m.Rate() < 0 {
		t.Error("negative rate")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc(2)
	r.Gauge("b").Set(1.5)
	r.Meter("c").Mark(7)
	r.Time("d").Add(2 * time.Second)

	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") || r.Meter("c") != r.Meter("c") || r.Time("d") != r.Time("d") {
		t.Error("registry getters not idempotent")
	}
	snap := r.Snapshot()
	if snap["a"] != 2 || snap["b"] != 1.5 || snap["d"] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	// Meters export distinguishable count and rate keys, never a bare count.
	if _, ok := snap["c"]; ok {
		t.Error("meter exported under its bare name")
	}
	if snap["c.count"] != 7 {
		t.Errorf("c.count = %v, want 7", snap["c.count"])
	}
	if rate, ok := snap["c.rate"]; !ok || rate < 0 {
		t.Errorf("c.rate = %v, %v", rate, ok)
	}
	names := r.Names()
	want := []string{"a", "b", "c.count", "c.rate", "d"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	kinds := r.Kinds()
	wantKinds := map[string]Kind{
		"a": KindCounter, "b": KindGauge,
		"c.count": KindCounter, "c.rate": KindGauge,
		"d": KindCounter,
	}
	for n, k := range wantKinds {
		if kinds[n] != k {
			t.Errorf("Kinds[%q] = %v, want %v", n, kinds[n], k)
		}
	}
	if len(kinds) != len(wantKinds) {
		t.Errorf("Kinds = %v", kinds)
	}
}

// TestRegistryScope: a scope and its parent name the same cells, the scope
// lists only what was asked for through it, and the scope of a nil registry
// is a private registry.
func TestRegistryScope(t *testing.T) {
	hub := NewRegistry()
	hub.Counter("other.series").Inc(9)
	hub.Counter("net.frames_sent").Inc(5) // an earlier owner's count
	scope := hub.Scope()
	frames, stall := scope.Counter("net.frames_sent"), scope.Time("exchange.credit_stall_seconds")
	if frames != hub.Counter("net.frames_sent") || stall != hub.Time("exchange.credit_stall_seconds") {
		t.Fatal("scope and parent returned different cells for one name")
	}
	base := scope.TypedSnapshot()
	frames.Inc(2)
	stall.Add(time.Second)
	got := scope.TypedSnapshot()
	if len(got.Counters) != 1 || len(got.Times) != 1 {
		t.Errorf("scope lists %v / %v, want only the two series it declared", got.Counters, got.Times)
	}
	if d := got.Counters["net.frames_sent"] - base.Counters["net.frames_sent"]; d != 2 {
		t.Errorf("scoped delta = %d, want 2", d)
	}
	if hub.Snapshot()["net.frames_sent"] != 7 || hub.Snapshot()["exchange.credit_stall_seconds"] != 1 {
		t.Errorf("parent does not see the scope's increments: %v", hub.Snapshot())
	}

	private := (*Registry)(nil).Scope()
	private.Counter("x").Inc(1)
	if private.Snapshot()["x"] != 1 {
		t.Error("scope of a nil registry is not a working private registry")
	}
}

func TestTaskMetricName(t *testing.T) {
	if got := TaskMetricName("win", 3, "records_in"); got != "win[3].records_in" {
		t.Errorf("TaskMetricName = %q", got)
	}
}

func TestParseTaskMetricName(t *testing.T) {
	// Round-trip through TaskMetricName, including qualified operator IDs.
	for _, tc := range []TaskMetric{
		{Op: "win", Index: 3, Metric: "records_in"},
		{Op: "Q2-join/src-person", Index: 0, Metric: "busy_seconds"},
		{Op: "op", Index: 12, Metric: "useful_fraction"},
	} {
		name := TaskMetricName(tc.Op, tc.Index, tc.Metric)
		got, ok := ParseTaskMetricName(name)
		if !ok || got != tc {
			t.Errorf("ParseTaskMetricName(%q) = %v, %v; want %v", name, got, ok, tc)
		}
	}
	for _, bad := range []string{
		"job.recoveries", "", "win[3]", "win[3].", "[3].x",
		"win[x].records_in", "win[-1].records_in", "win3].records_in",
	} {
		if got, ok := ParseTaskMetricName(bad); ok {
			t.Errorf("ParseTaskMetricName(%q) = %v, want no parse", bad, got)
		}
	}
}

// TestRegistryConcurrent hammers every metric type from parallel goroutines
// while snapshots are taken, asserting that counter-like series observed in
// successive snapshots never move backwards (no torn reads).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		prev := map[string]float64{}
		for {
			snap := r.Snapshot()
			for _, key := range []string{"hits", "m.count", "busy"} {
				if snap[key] < prev[key] {
					snapErr = fmt.Errorf("%s went backwards: %v -> %v", key, prev[key], snap[key])
					return
				}
			}
			prev = snap
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				r.Counter("hits").Inc(1)
				r.Meter("m").Mark(2)
				r.Gauge("level").Set(float64(j))
				r.Time("busy").Add(time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	snap := r.Snapshot()
	if snap["hits"] != workers*perWorker {
		t.Errorf("hits = %v, want %d", snap["hits"], workers*perWorker)
	}
	if snap["m.count"] != 2*workers*perWorker {
		t.Errorf("m.count = %v, want %d", snap["m.count"], 2*workers*perWorker)
	}
}

func TestMeterInjectedClock(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Step clock: construction reads once (epoch = base), Rate reads again
	// (base + 2s), so 10 events over exactly 2 seconds.
	m := NewMeterAt(clock.Step(base, 2*time.Second))
	m.Mark(10)
	if got := m.Rate(); got != 5 {
		t.Errorf("Rate = %v, want 5 (10 events / 2s step)", got)
	}
	// A frozen clock yields zero elapsed: Rate reports 0, not +Inf.
	f := NewMeterAt(clock.Fixed(base))
	f.Mark(100)
	if got := f.Rate(); got != 0 {
		t.Errorf("Rate under frozen clock = %v, want 0", got)
	}
}

func TestRegistryInjectedClock(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	r := NewRegistryAt(clock.Step(base, time.Second))
	r.Meter("events").Mark(3)
	snap := r.Snapshot()
	if snap["events.count"] != 3 {
		t.Errorf("events.count = %v", snap["events.count"])
	}
	// The meter consumed one clock tick at creation; Snapshot's Rate call is
	// the second read, one second later — a deterministic 3 events/sec.
	if snap["events.rate"] != 3 {
		t.Errorf("events.rate = %v, want deterministic 3", snap["events.rate"])
	}
}
