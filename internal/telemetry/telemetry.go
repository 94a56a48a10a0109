// Package telemetry is the repository's measurement substrate: log-scale
// latency histograms with windowed (recent-interval) views, a structured
// event tracer with an optional JSONL sink, and a stdlib-only HTTP exporter
// serving Prometheus text exposition plus a JSON event feed.
//
// The CAPSys paper's control loop is driven entirely by observability — its
// metrics collector scrapes busy/idle/backpressure time and record counters
// from Flink Task Managers to feed DS2 and CAPS. This package is the
// reproduction's equivalent: the engine samples per-record latency and
// worker resource saturation into a Telemetry hub, the controller and
// recovery loop trace their decisions, and the exporter makes a running job
// scrapeable mid-flight instead of inspectable only post-mortem.
package telemetry

import (
	"maps"
	"sort"
	"sync"
	"time"

	"capsys/internal/metrics"
)

// Telemetry is the hub instrumented components share: a metrics registry,
// named histograms (each paired with a windowed view), callback gauges and
// an event tracer. All methods are safe for concurrent use and nil-receiver
// safe, so a nil *Telemetry cleanly disables instrumentation.
type Telemetry struct {
	mu       sync.Mutex
	reg      *metrics.Registry
	hists    map[string]*Histogram // guarded by mu
	windows  map[string]*Windowed  // guarded by mu
	gaugeFns map[string]gaugeFunc  // guarded by mu
	tracer   *Tracer
}

type gaugeFunc struct {
	GaugeFunc
	owner string // the ReplaceGaugeFuncs set it belongs to ("" = none)
}

// GaugeFunc is one callback gauge: the (Family, Labels) series and the
// callback that reads its value at scrape time.
type GaugeFunc struct {
	Family string
	Labels map[string]string
	Fn     func() float64
}

const (
	// TracerCapacity bounds a hub's event ring buffer.
	TracerCapacity = 4096
	// WindowInterval and WindowIntervals shape the windowed histogram
	// views: a one-minute rolling window.
	WindowInterval  = 5 * time.Second
	WindowIntervals = 12
)

// New creates a hub.
func New() *Telemetry {
	return &Telemetry{
		reg:      metrics.NewRegistry(),
		hists:    make(map[string]*Histogram),
		windows:  make(map[string]*Windowed),
		gaugeFns: make(map[string]gaugeFunc),
		tracer:   NewTracer(TracerCapacity),
	}
}

// Registry returns the hub's shared metrics registry (nil for a nil hub).
func (t *Telemetry) Registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Tracer returns the hub's event tracer (nil for a nil hub; a nil Tracer
// swallows events).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Histogram returns (creating if needed) the named histogram with the
// default latency layout, paired with a windowed view. Returns nil on a nil
// hub — and a nil *Histogram's Observe is a no-op. Creating one under a name
// that fails metrics.CheckName panics.
func (t *Telemetry) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		if err := metrics.CheckName(name, metrics.HistogramName); err != nil {
			panic(err)
		}
		h, _ = NewHistogram(DefaultLatencyOptions())
		t.hists[name] = h
		t.windows[name] = NewWindowed(h, WindowInterval, WindowIntervals)
	}
	return h
}

// Window returns the windowed view of the named histogram, creating the
// histogram if needed.
func (t *Telemetry) Window(name string) *Windowed {
	if t == nil {
		return nil
	}
	t.Histogram(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.windows[name]
}

// HistogramNames returns the registered histogram names, sorted.
func (t *Telemetry) HistogramNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.hists))
	for n := range t.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetGaugeFunc registers (or replaces) a callback gauge in the given metric
// family with the given label set. The callback runs at scrape time, so the
// exported value is live. The (family, labels) pair identifies the series;
// registering a new one under a family that fails metrics.CheckName panics.
func (t *Telemetry) SetGaugeFunc(family string, labels map[string]string, fn func() float64) {
	if t == nil || fn == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setGaugeFuncLocked("", GaugeFunc{Family: family, Labels: labels, Fn: fn})
}

// ReplaceGaugeFuncs registers gs as owner's set of callback gauges: every
// gauge an earlier call registered for owner is removed, so a series owner
// no longer registers stops being exported and its callback — with whatever
// state it reads — is released. A series gs shares with another owner's set
// moves to owner's. Each gauge is registered as by SetGaugeFunc.
func (t *Telemetry) ReplaceGaugeFuncs(owner string, gs []GaugeFunc) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, g := range t.gaugeFns {
		if g.owner == owner {
			delete(t.gaugeFns, key)
		}
	}
	for _, g := range gs {
		t.setGaugeFuncLocked(owner, g)
	}
}

// setGaugeFuncLocked registers g under a copy of its labels. t.mu must be held.
func (t *Telemetry) setGaugeFuncLocked(owner string, g GaugeFunc) {
	key := g.Family + "|" + renderLabels(g.Labels)
	if _, ok := t.gaugeFns[key]; !ok {
		if err := metrics.CheckName(g.Family, metrics.FamilyName); err != nil {
			panic(err)
		}
	}
	g.Labels = maps.Clone(g.Labels)
	if g.Labels == nil {
		g.Labels = map[string]string{}
	}
	t.gaugeFns[key] = gaugeFunc{GaugeFunc: g, owner: owner}
}

// GaugeSample is one callback gauge's identity and current value, as
// captured by SampleGaugeFuncs. All fields are plain exported values, so
// samples survive JSON encoding — workers ship them to the coordinator on
// the heartbeat piggyback.
type GaugeSample struct {
	Family string
	Labels map[string]string
	Value  float64
}

// SampleGaugeFuncs evaluates every registered callback gauge and returns
// the samples in stable (family, labels) order. Nil-receiver safe.
func (t *Telemetry) SampleGaugeFuncs() []GaugeSample {
	if t == nil {
		return nil
	}
	fns := t.gaugeFuncs()
	out := make([]GaugeSample, 0, len(fns))
	for _, g := range fns {
		out = append(out, GaugeSample{Family: g.Family, Labels: g.Labels, Value: g.Fn()})
	}
	return out
}

// gaugeFuncs returns a stable-ordered copy of the registered callback
// gauges.
func (t *Telemetry) gaugeFuncs() []gaugeFunc {
	t.mu.Lock()
	keys := make([]string, 0, len(t.gaugeFns))
	for k := range t.gaugeFns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]gaugeFunc, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.gaugeFns[k])
	}
	t.mu.Unlock()
	return out
}
