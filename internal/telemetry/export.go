package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"capsys/internal/metrics"
)

// quantiles exported for every histogram and windowed view.
var exportQuantiles = []struct {
	label string
	p     float64
}{{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}}

// promFamily is one exposition-format metric family: a TYPE header followed
// by sample lines in insertion order (bucket order must stay ascending).
type promFamily struct {
	name  string
	typ   string
	lines []string
}

type promDoc struct {
	order    []string
	families map[string]*promFamily
}

func newPromDoc() *promDoc {
	return &promDoc{families: make(map[string]*promFamily)}
}

func (d *promDoc) family(name, typ string) *promFamily {
	f, ok := d.families[name]
	if !ok {
		f = &promFamily{name: name, typ: typ}
		d.families[name] = f
		d.order = append(d.order, name)
	}
	return f
}

func (f *promFamily) add(series string, labels map[string]string, v float64) {
	f.lines = append(f.lines, fmt.Sprintf("%s%s %s", series, renderLabels(labels), formatFloat(v)))
}

func (d *promDoc) write(w io.Writer) error {
	names := append([]string(nil), d.order...)
	sort.Strings(names)
	for _, n := range names {
		f := d.families[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus renders the hub's current state in Prometheus text
// exposition format (version 0.0.4). Output ordering is deterministic:
// families sorted by name, series in sorted-source order within a family.
//
// Conventions:
//   - registry counters/time accumulators become "capsys_<name>_total"
//     counters; gauges become "capsys_<name>" gauges.
//   - per-task registry names ("op[3].records_in") become one family per
//     metric ("capsys_task_records_in_total") with op/index labels.
//   - a histogram named "latency.<op>" joins the "capsys_latency_seconds"
//     family with an op label; other histograms get their own family. Each
//     histogram also exports "<family>_quantile" gauges (p50/p95/p99) and a
//     windowed "<family>_window_quantile" / "<family>_window_rate_per_second"
//     view over recent intervals.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	doc := newPromDoc()
	t.renderRegistry(doc, t.reg)
	t.renderHistograms(doc)
	for _, g := range t.gaugeFuncs() {
		fam := "capsys_" + sanitizeName(g.Family)
		doc.family(fam, "gauge").add(fam, g.Labels, g.Fn())
	}
	return doc.write(w)
}

// renderRegistry folds one metrics registry into the document. Counters and
// time accumulators are monotone series ("_total" counters), gauges are
// gauges. A per-task name ("op[3].records_in") joins its metric's task family
// with op/index labels, and a cluster-aggregated per-worker name
// ("worker.w1.<metric>") carries the worker as a label — in the task family
// when its metric is per-task, in a worker family otherwise.
func (t *Telemetry) renderRegistry(doc *promDoc, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	snap := reg.TypedSnapshot()
	values := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+len(snap.Times))
	monotone := make(map[string]bool, len(snap.Counters)+len(snap.Times))
	for n, v := range snap.Counters {
		values[n], monotone[n] = float64(v), true
	}
	for n, v := range snap.Gauges {
		values[n], monotone[n] = v, false
	}
	for n, d := range snap.Times {
		values[n], monotone[n] = d.Seconds(), true
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		s := metrics.SplitName(name, metrics.CellName)
		prefix := "capsys_"
		if s.Index >= 0 {
			prefix = "capsys_task_"
		} else if s.Worker != "" {
			prefix = "capsys_worker_"
		}
		fam, typ := prefix+sanitizeName(s.Family), "gauge"
		if monotone[name] {
			fam += "_total"
			typ = "counter"
		}
		doc.family(fam, typ).add(fam, s.Labels(), values[name])
	}
}

func (t *Telemetry) renderHistograms(doc *promDoc) {
	for _, name := range t.HistogramNames() {
		h := t.Histogram(name)
		win := t.Window(name)
		fam, labels := histogramFamily(name)

		snap := h.Snapshot()
		hf := doc.family(fam, "histogram")
		cum := int64(0)
		for i, c := range snap.Counts {
			cum += c
			le := "+Inf"
			if i < len(snap.Bounds) {
				le = formatFloat(snap.Bounds[i])
			}
			hf.add(fam+"_bucket", withLabel(labels, "le", le), float64(cum))
		}
		hf.add(fam+"_sum", labels, snap.Sum)
		hf.add(fam+"_count", labels, float64(snap.Count))

		qf := doc.family(fam+"_quantile", "gauge")
		for _, q := range exportQuantiles {
			qf.add(fam+"_quantile", withLabel(labels, "quantile", q.label), snap.Quantile(q.p))
		}

		wsnap, span := win.Snapshot()
		wq := doc.family(fam+"_window_quantile", "gauge")
		for _, q := range exportQuantiles {
			wq.add(fam+"_window_quantile", withLabel(labels, "quantile", q.label), wsnap.Quantile(q.p))
		}
		rate := 0.0
		if span > 0 {
			rate = float64(wsnap.Count) / span.Seconds()
		}
		doc.family(fam+"_window_rate_per_second", "gauge").
			add(fam+"_window_rate_per_second", labels, rate)
	}
}

// histogramFamily maps a histogram name to its exposition family and labels.
// "latency.<op>" histograms share one family with an op label.
func histogramFamily(name string) (string, map[string]string) {
	s := metrics.SplitName(name, metrics.HistogramName)
	if s.Op != "" {
		return "capsys_latency_seconds", s.Labels()
	}
	return "capsys_" + sanitizeName(s.Family), nil
}

func withLabel(labels map[string]string, k, v string) map[string]string {
	out := make(map[string]string, len(labels)+1)
	for lk, lv := range labels {
		out[lk] = lv
	}
	out[k] = v
	return out
}

// renderLabels renders a label set as {k="v",...} with sorted keys, or ""
// when empty.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeName maps an internal metric name onto the Prometheus name
// alphabet: every run of invalid characters collapses to one underscore.
func sanitizeName(s string) string {
	var b strings.Builder
	lastUnderscore := false
	for i, r := range s {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !valid {
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
			continue
		}
		b.WriteRune(r)
		lastUnderscore = r == '_'
	}
	return strings.Trim(b.String(), "_")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the hub over HTTP:
//
//	/metrics  Prometheus text exposition
//	/events   the trace ring buffer as JSON ({"schema":..,"events":[..]});
//	          ?n=K limits the response to the most recent K events
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WritePrometheus(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		events := t.Tracer().Events()
		if n := r.URL.Query().Get("n"); n != "" {
			if k, err := strconv.Atoi(n); err == nil && k >= 0 && k < len(events) {
				events = events[len(events)-k:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Schema  int     `json:"schema"`
			Dropped int64   `json:"dropped"`
			Events  []Event `json:"events"`
		}{TraceSchemaVersion, t.Tracer().Dropped(), events})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "capsys telemetry: /metrics (Prometheus), /events (JSON)")
	})
	return mux
}

// Serve starts an HTTP server for the hub on addr (":9090", "127.0.0.1:0",
// ...). It returns the running server and the bound address; the caller
// shuts it down via server.Close.
func (t *Telemetry) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: t.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
