package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
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

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc(2)
	r.Gauge("b").Set(1.5)
	r.Time("d").Add(2 * time.Second)

	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") || r.Time("d") != r.Time("d") {
		t.Error("registry getters not idempotent")
	}
	snap := r.Snapshot()
	if snap["a"] != 2 || snap["b"] != 1.5 || snap["d"] != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
	names := r.Names()
	want := []string{"a", "b", "d"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
}

// TestRegistryScope: a scope owns its cells and counts only what went
// through it, every update also lands on the parent's same-named cell (so
// two scopes of one parent each count their own share while the parent
// counts both), and the scope of a nil registry is a private registry.
func TestRegistryScope(t *testing.T) {
	hub := NewRegistry()
	hub.Counter("other.series").Inc(9)
	hub.Counter("net.frames_sent").Inc(5) // an earlier owner's count
	a, b := hub.Scope(), hub.Scope()
	frames, stall := a.Counter("net.frames_sent"), a.Time("exchange.credit_stall_seconds")
	if frames == hub.Counter("net.frames_sent") || frames != a.Counter("net.frames_sent") {
		t.Fatal("a scope must own one cell per name, not share its parent's")
	}
	frames.Inc(2)
	stall.Add(time.Second)
	a.Gauge("level").Set(3)
	b.Counter("net.frames_sent").Inc(4)
	got := a.TypedSnapshot()
	if len(got.Counters) != 1 || len(got.Times) != 1 || len(got.Gauges) != 1 {
		t.Errorf("scope lists %v / %v / %v, want only the three series it declared", got.Counters, got.Times, got.Gauges)
	}
	if got.Counters["net.frames_sent"] != 2 || got.Times["exchange.credit_stall_seconds"] != time.Second {
		t.Errorf("scope counts %v / %v, want its own 2 frames and 1s", got.Counters, got.Times)
	}
	if n := b.Snapshot()["net.frames_sent"]; n != 4 {
		t.Errorf("second scope counts %v frames, want its own 4", n)
	}
	snap := hub.Snapshot()
	if snap["net.frames_sent"] != 11 || snap["exchange.credit_stall_seconds"] != 1 || snap["level"] != 3 {
		t.Errorf("parent does not see both scopes' updates on top of its own: %v", snap)
	}

	nested := a.Scope()
	nested.Counter("net.frames_sent").Inc(1)
	if a.Counter("net.frames_sent").Value() != 3 || hub.Counter("net.frames_sent").Value() != 12 {
		t.Error("a scope of a scope does not forward through both parents")
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

// TestOperatorIDsPassTheNameCheck: operator IDs are user input and only a
// label, so real ones — punctuation, capitals, a bracket, a dot — must pass
// the name check and round-trip through the task name.
func TestOperatorIDsPassTheNameCheck(t *testing.T) {
	r := NewRegistry()
	for i, op := range []string{"slide-win", "snkB", "S", "Q[1]", "a.b", "worker.w1."} {
		name := TaskMetricName(op, i, "records_in")
		if err := CheckName(name, CellName); err != nil {
			t.Errorf("op %q: %v", op, err)
			continue
		}
		r.Counter(name).Inc(1)
		tm, ok := ParseTaskMetricName(name)
		if !ok || tm != (TaskMetric{Op: op, Index: i, Metric: "records_in"}) {
			t.Errorf("ParseTaskMetricName(%q) = %+v, %v", name, tm, ok)
		}
		s := SplitName(name, CellName)
		if s.Family != "records_in" || s.Op != op || s.Index != i || s.Worker != "" {
			t.Errorf("SplitName(%q) = %+v", name, s)
		}
	}
}

// TestSplitName pins which parts of a name are labels, per kind.
func TestSplitName(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind Kind
		want Series
	}{
		{"job.recoveries", CellName, Series{Family: "job.recoveries", Index: -1}},
		{"worker.w1.net.frames_sent", CellName, Series{Family: "net.frames_sent", Worker: "w1", Index: -1}},
		{"worker.w1.win[3].records_in", CellName, Series{Family: "records_in", Worker: "w1", Op: "win", Index: 3}},
		{"cluster.net.frames_sent", CellName, Series{Family: "cluster.net.frames_sent", Index: -1}},
		{"latency.win", CellName, Series{Family: "latency.win", Index: -1}},
		{"latency.Slide-Win", HistogramName, Series{Family: "latency", Op: "Slide-Win", Index: -1}},
		{"latency.", HistogramName, Series{Family: "latency.", Index: -1}},
		{"win[3].records_in", HistogramName, Series{Family: "win[3].records_in", Index: -1}},
		{"worker.w1.x", FamilyName, Series{Family: "worker.w1.x", Index: -1}},
	} {
		if got := SplitName(tc.name, tc.kind); got != tc.want {
			t.Errorf("SplitName(%q, %d) = %+v, want %+v", tc.name, tc.kind, got, tc.want)
		}
	}
}

// TestBadNamePanics: creating a cell under a name whose family breaks the
// rule panics, whether the name is a literal, a Sprintf or a concatenation;
// looking up an existing cell never checks again.
func TestBadNamePanics(t *testing.T) {
	shard, suffix := 3, "Total"
	bad := []string{
		"Worker-CPU%",
		fmt.Sprintf("Shard-%d-CPU", shard),
		"records." + suffix,
		TaskMetricName("win", 0, "Records"),
		"win[0].",
		"",
	}
	r := NewRegistry()
	create := map[string]func(string){
		"Counter": func(n string) { r.Counter(n) },
		"Gauge":   func(n string) { r.Gauge(n) },
		"Time":    func(n string) { r.Time(n) },
		"Scope":   func(n string) { r.Scope().Counter(n) },
	}
	for kind, fn := range create {
		for _, name := range bad {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) did not panic", kind, name)
					}
				}()
				fn(name)
			}()
		}
	}
	if names := r.Names(); len(names) != 0 {
		t.Errorf("bad names were registered: %v", names)
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
			for _, key := range []string{"hits", "busy"} {
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
}
