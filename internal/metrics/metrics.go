// Package metrics provides the lightweight instrumentation primitives used
// by the engine and the CAPSys metrics collector: atomic counters, gauges,
// elapsed-time meters and a named registry with consistent snapshots.
//
// The design mirrors what the paper's metrics collector scrapes from Flink
// Task Managers: monotonic record counters, busy/idle time accumulators (the
// basis of DS2's useful-time fractions), and byte counters for network and
// state access.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/clock"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds n (n may be any non-negative value).
func (c *Counter) Inc(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// TimeAccumulator accumulates durations (e.g. busy time) atomically.
type TimeAccumulator struct {
	ns atomic.Int64
}

// Add accumulates d.
func (t *TimeAccumulator) Add(d time.Duration) { t.ns.Add(int64(d)) }

// Total returns the accumulated duration.
func (t *TimeAccumulator) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Meter tracks a count over clock time and reports an average rate.
type Meter struct {
	count atomic.Int64
	start time.Time
	clk   clock.Clock
}

// NewMeter creates a meter on the system clock with its epoch set to now.
func NewMeter() *Meter { return NewMeterAt(nil) }

// NewMeterAt creates a meter on the given clock (nil = system) with its
// epoch set to the clock's current reading. Injecting clock.Fixed or
// clock.Step makes Rate deterministic for tests and replayers.
func NewMeterAt(clk clock.Clock) *Meter {
	clk = clk.OrSystem()
	return &Meter{start: clk(), clk: clk}
}

// Mark records n events.
func (m *Meter) Mark(n int64) { m.count.Add(n) }

// Count returns the number of events marked.
func (m *Meter) Count() int64 { return m.count.Load() }

// Rate returns events per second since the meter's epoch.
func (m *Meter) Rate() float64 {
	el := m.clk.Since(m.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.count.Load()) / el
}

// RateOver returns events per second over an externally supplied elapsed
// duration (used when the caller controls the measurement window).
func (m *Meter) RateOver(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(m.count.Load()) / elapsed.Seconds()
}

// Registry is a named collection of metrics with consistent snapshots.
type Registry struct {
	mu  sync.Mutex
	clk clock.Clock
	// parent is set on a Scope: cells come from the parent, so both
	// registries name the same cell; only the listing is the scope's own.
	parent   *Registry
	counters map[string]*Counter
	gauges   map[string]*Gauge
	meters   map[string]*Meter
	times    map[string]*TimeAccumulator
}

// NewRegistry creates an empty registry on the system clock.
func NewRegistry() *Registry { return NewRegistryAt(nil) }

// NewRegistryAt creates an empty registry whose meters read the given clock
// (nil = system).
func NewRegistryAt(clk clock.Clock) *Registry {
	return &Registry{
		clk:      clk.OrSystem(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		meters:   make(map[string]*Meter),
		times:    make(map[string]*TimeAccumulator),
	}
}

// Scope returns a registry that shares r's cells but lists only the names
// asked for through it: Counter("x") on the scope and on r return the same
// *Counter, while the scope's snapshots cover just the series its owner
// declared. A component that reports its own share of a process-wide
// registry — an engine attempt inside a telemetry hub — declares its cells
// on a scope and subtracts the snapshot it took when it started. The scope
// of a nil registry is a fresh private registry.
func (r *Registry) Scope() *Registry {
	if r == nil {
		return NewRegistry()
	}
	s := NewRegistryAt(r.clk)
	s.parent = r
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		if r.parent != nil {
			c = r.parent.Counter(name)
		} else {
			c = &Counter{}
		}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		if r.parent != nil {
			g = r.parent.Gauge(name)
		} else {
			g = &Gauge{}
		}
		r.gauges[name] = g
	}
	return g
}

// Meter returns (creating if needed) the named meter.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		if r.parent != nil {
			m = r.parent.Meter(name)
		} else {
			m = NewMeterAt(r.clk)
		}
		r.meters[name] = m
	}
	return m
}

// Time returns (creating if needed) the named time accumulator.
func (r *Registry) Time(name string) *TimeAccumulator {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.times[name]
	if !ok {
		if r.parent != nil {
			t = r.parent.Time(name)
		} else {
			t = &TimeAccumulator{}
		}
		r.times[name] = t
	}
	return t
}

// Snapshot returns all metric values keyed by name. Counters export their
// counts; gauges their value; time accumulators their seconds. Meters export
// two keys — "<name>.count" (events marked) and "<name>.rate" (events per
// second since the meter's epoch) — so consumers can tell counts from rates
// without re-deriving either.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.meters)+len(r.times))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	//capslint:allow determinism injective rebuild: every map key derives two distinct output keys, so order cannot leak
	for n, m := range r.meters {
		out[n+".count"] = float64(m.Count())
		out[n+".rate"] = m.Rate()
	}
	for n, t := range r.times {
		out[n] = t.Total().Seconds()
	}
	return out
}

// TypedValues is a Registry snapshot split by primitive type. Snapshot()
// flattens everything to float64 for reporting; consumers that must
// re-apply values into another registry with the right semantics — the
// cluster aggregation plane delta-encodes counters and time accumulators
// but ships gauges as absolutes — need the taxonomy preserved. Meter
// counts appear under "<name>.count" beside plain counters (rates are
// derived, never shipped).
type TypedValues struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Times    map[string]time.Duration
}

// TypedSnapshot returns a consistent typed snapshot of the registry.
func (r *Registry) TypedSnapshot() TypedValues {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := TypedValues{
		Counters: make(map[string]int64, len(r.counters)+len(r.meters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Times:    make(map[string]time.Duration, len(r.times)),
	}
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	//capslint:allow determinism injective rebuild keyed by the derived "<name>.count", so order cannot leak
	for n, m := range r.meters {
		out.Counters[n+".count"] = m.Count()
	}
	for n, g := range r.gauges {
		out.Gauges[n] = g.Value()
	}
	for n, t := range r.times {
		out.Times[n] = t.Total()
	}
	return out
}

// Kind classifies a snapshot entry for exporters that must distinguish
// monotone series from point-in-time values.
type Kind int

const (
	// KindCounter marks monotonically increasing values (counters, meter
	// counts and time accumulators).
	KindCounter Kind = iota
	// KindGauge marks point-in-time values (gauges and meter rates).
	KindGauge
)

// Kinds returns, for every key Snapshot would emit, whether it is a monotone
// counter-like series or a point-in-time gauge.
func (r *Registry) Kinds() map[string]Kind {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Kind, len(r.counters)+len(r.gauges)+2*len(r.meters)+len(r.times))
	for n := range r.counters {
		out[n] = KindCounter
	}
	for n := range r.gauges {
		out[n] = KindGauge
	}
	//capslint:allow determinism injective rebuild: every map key derives two distinct output keys, so order cannot leak
	for n := range r.meters {
		out[n+".count"] = KindCounter
		out[n+".rate"] = KindGauge
	}
	for n := range r.times {
		out[n] = KindCounter
	}
	return out
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TaskMetricName builds the canonical per-task metric name, e.g.
// "win[3].records_in".
func TaskMetricName(op string, index int, metric string) string {
	return fmt.Sprintf("%s[%d].%s", op, index, metric)
}

// TaskMetric is the parsed form of a canonical per-task metric name.
type TaskMetric struct {
	Op     string
	Index  int
	Metric string
}

// WorkerMetricName builds the canonical per-worker metric name used by the
// cluster aggregation plane, e.g. "worker.w1.net.frames_sent": a worker's
// series lands in the coordinator registry under its cluster-spec worker
// ID. Worker IDs must not contain dots (cluster validation enforces the
// IDs the engine uses; ParseWorkerMetricName splits at the first dot).
func WorkerMetricName(worker, metric string) string {
	return "worker." + worker + "." + metric
}

// ClusterMetricName builds the cluster-rollup name for a worker series,
// e.g. "cluster.net.frames_sent" — the sum across workers of the same
// monotone series.
func ClusterMetricName(metric string) string {
	return "cluster." + metric
}

// WorkerMetric is the parsed form of a canonical per-worker metric name.
type WorkerMetric struct {
	Worker string
	Metric string
}

// ParseWorkerMetricName is the inverse of WorkerMetricName. The second
// return is false for names without the "worker.<id>." shape.
func ParseWorkerMetricName(name string) (WorkerMetric, bool) {
	rest, ok := strings.CutPrefix(name, "worker.")
	if !ok {
		return WorkerMetric{}, false
	}
	worker, metric, ok := strings.Cut(rest, ".")
	if !ok || worker == "" || metric == "" {
		return WorkerMetric{}, false
	}
	return WorkerMetric{Worker: worker, Metric: metric}, true
}

// ParseTaskMetricName is the inverse of TaskMetricName: it splits
// "win[3].records_in" into its operator, task index and metric parts. The
// second return is false for names that are not per-task metrics (job-level
// series like "job.recoveries", malformed brackets, negative or non-numeric
// indices).
func ParseTaskMetricName(name string) (TaskMetric, bool) {
	open := strings.IndexByte(name, '[')
	if open <= 0 {
		return TaskMetric{}, false
	}
	rest := name[open+1:]
	close := strings.Index(rest, "].")
	if close < 0 {
		return TaskMetric{}, false
	}
	idx, err := strconv.Atoi(rest[:close])
	if err != nil || idx < 0 {
		return TaskMetric{}, false
	}
	// Accept only the canonical digit rendering ("3", not "03" or "+3"), so
	// parsing is a true inverse of TaskMetricName: rebuilding an accepted
	// name reproduces it byte for byte.
	if strconv.Itoa(idx) != rest[:close] {
		return TaskMetric{}, false
	}
	metric := rest[close+2:]
	if metric == "" {
		return TaskMetric{}, false
	}
	return TaskMetric{Op: name[:open], Index: idx, Metric: metric}, true
}
