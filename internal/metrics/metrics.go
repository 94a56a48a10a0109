// Package metrics provides the lightweight instrumentation primitives used
// by the engine and the CAPSys metrics collector: atomic counters, gauges,
// time accumulators and a named registry with consistent snapshots.
//
// The design mirrors what the paper's metrics collector scrapes from Flink
// Task Managers: monotonic record counters, busy/idle time accumulators (the
// basis of DS2's useful-time fractions), and byte counters for network and
// state access.
//
// Names follow one rule, checked once where a cell is created: SplitName
// separates a name's family from its label parts (a "worker.<id>." prefix,
// an "<op>[<i>]." task prefix, a histogram's "latency.<op>"), and the family
// must match ^[a-z0-9_.]+$. Label parts are not judged, since operator and
// worker IDs are user input. Creating a cell under a bad name panics, like
// regexp.MustCompile on a bad pattern; code that relays names from another
// process checks them with CheckName where it decodes them.
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
)

// Counter is a monotonically increasing atomic counter. A counter a scope
// declared also adds every increment to its parent's same-named counter.
type Counter struct {
	v  atomic.Int64
	up *Counter
}

// Inc adds n (n may be any non-negative value). It loops up the scope chain
// rather than recursing so that it stays small enough to inline.
func (c *Counter) Inc(n int64) {
	c.v.Add(n)
	for up := c.up; up != nil; up = up.up {
		up.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value. A gauge a scope declared
// also sets its parent's same-named gauge.
type Gauge struct {
	bits atomic.Uint64
	up   *Gauge
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	for up := g.up; up != nil; up = up.up {
		up.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// TimeAccumulator accumulates durations (e.g. busy time) atomically. An
// accumulator a scope declared also adds every duration to its parent's
// same-named accumulator.
type TimeAccumulator struct {
	ns atomic.Int64
	up *TimeAccumulator
}

// Add accumulates d.
func (t *TimeAccumulator) Add(d time.Duration) {
	t.ns.Add(int64(d))
	for up := t.up; up != nil; up = up.up {
		up.ns.Add(int64(d))
	}
}

// Total returns the accumulated duration.
func (t *TimeAccumulator) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Registry is a named collection of metrics with consistent snapshots.
type Registry struct {
	mu sync.Mutex
	// parent is set on a Scope: every cell the scope declares forwards its
	// updates to the parent's same-named cell.
	parent   *Registry
	counters map[string]*Counter
	gauges   map[string]*Gauge
	times    map[string]*TimeAccumulator
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		times:    make(map[string]*TimeAccumulator),
	}
}

// Scope returns a registry of cells it owns, each forwarding its updates to
// r's same-named cell: the scope's snapshots count only what went through
// it, while r keeps counting everything. A component that reports its own
// share of a process-wide registry — an engine attempt inside a telemetry
// hub — declares its cells on a scope and reads the scope as it is. The
// scope of a nil registry is a fresh private registry.
func (r *Registry) Scope() *Registry {
	s := NewRegistry()
	s.parent = r
	return s
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		mustName(name)
		c = &Counter{}
		if r.parent != nil {
			c.up = r.parent.Counter(name)
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
		mustName(name)
		g = &Gauge{}
		if r.parent != nil {
			g.up = r.parent.Gauge(name)
		}
		r.gauges[name] = g
	}
	return g
}

// Time returns (creating if needed) the named time accumulator.
func (r *Registry) Time(name string) *TimeAccumulator {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.times[name]
	if !ok {
		mustName(name)
		t = &TimeAccumulator{}
		if r.parent != nil {
			t.up = r.parent.Time(name)
		}
		r.times[name] = t
	}
	return t
}

// Snapshot returns all metric values keyed by name. Counters export their
// counts; gauges their value; time accumulators their seconds.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.times))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
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
// but ships gauges as absolutes — need the taxonomy preserved.
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
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Times:    make(map[string]time.Duration, len(r.times)),
	}
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		out.Gauges[n] = g.Value()
	}
	for n, t := range r.times {
		out.Times[n] = t.Total()
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
// ID. Worker IDs must not contain dots: ParseWorkerMetricName splits at the
// first dot, so the rest of a dotted ID would be judged as the family.
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
// indices). The index bracket is the name's last '[': an operator ID may
// contain '[' ("Q[1]"), a metric part may not.
func ParseTaskMetricName(name string) (TaskMetric, bool) {
	open := strings.LastIndexByte(name, '[')
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

// Kind says which label parts a name may carry.
type Kind uint8

const (
	// CellName is a Registry counter, gauge or time accumulator name: it may
	// carry a "worker.<id>." prefix and an "<op>[<i>]." task prefix.
	CellName Kind = iota
	// HistogramName is a telemetry histogram name: "latency.<op>" is the
	// latency family with an op label.
	HistogramName
	// FamilyName is a callback gauge's family, whose labels travel apart:
	// all of it is family.
	FamilyName
)

// Series is a metric name split into the family it is exported under and
// the label parts that tell its series apart.
type Series struct {
	Family string
	Worker string // "" unless the name is per-worker
	Op     string // "" unless the name is per-task or a latency histogram
	Index  int    // the task index; -1 unless the name is per-task
}

// SplitName is the one place that decides which part of a name is its
// family: the Prometheus exporter renders what it returns and CheckName
// judges it. A cell name is split at its task prefix first, so that no
// operator ID can leak into the family: the last '[' of
// TaskMetricName(op, i, m) is always the index bracket. A worker prefix is
// then taken from the operator part, or from the whole name when the name
// is not per-task.
func SplitName(name string, kind Kind) Series {
	s := Series{Family: name, Index: -1}
	switch kind {
	case HistogramName:
		if op, ok := strings.CutPrefix(name, "latency."); ok && op != "" {
			s.Family, s.Op = "latency", op
		}
	case CellName:
		if tm, ok := ParseTaskMetricName(name); ok {
			s.Family, s.Op, s.Index = tm.Metric, tm.Op, tm.Index
			if wm, ok := ParseWorkerMetricName(tm.Op); ok {
				s.Worker, s.Op = wm.Worker, wm.Metric
			}
		} else if wm, ok := ParseWorkerMetricName(name); ok {
			s.Worker, s.Family = wm.Worker, wm.Metric
		}
	}
	return s
}

// Labels returns the series' label parts as exposition labels ("worker",
// "op", "index").
func (s Series) Labels() map[string]string {
	l := make(map[string]string, 3)
	if s.Worker != "" {
		l["worker"] = s.Worker
	}
	if s.Op != "" {
		l["op"] = s.Op
	}
	if s.Index >= 0 {
		l["index"] = strconv.Itoa(s.Index)
	}
	return l
}

// CheckName returns an error unless name's family (SplitName) matches
// ^[a-z0-9_.]+$.
func CheckName(name string, kind Kind) error {
	fam := SplitName(name, kind).Family
	if fam == "" {
		return fmt.Errorf("metrics: name %q has an empty family", name)
	}
	for i := 0; i < len(fam); i++ {
		if c := fam[i]; !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '.') {
			return fmt.Errorf("metrics: name %q: family %q must match ^[a-z0-9_.]+$", name, fam)
		}
	}
	return nil
}

// mustName panics on a cell name that fails CheckName: every name that
// reaches a registry is either written in this repository or was checked
// where it was decoded.
func mustName(name string) {
	if err := CheckName(name, CellName); err != nil {
		panic(err)
	}
}
