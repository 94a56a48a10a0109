package controller

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the coordinator side of the cluster observability plane.
// Worker processes piggyback compact metric snapshots and their new tracer
// events on their HEARTBEAT frames; the coordinator merges both into its own
// telemetry hub, so one scrape of the
// coordinator's /metrics shows every worker's live series (keyed
// "worker.<id>.<name>" plus "cluster.<name>" rollups) and one trace file
// holds the causally-ordered cluster timeline.
//
// Monotone values (counters, time accumulators, histogram buckets) travel
// as deltas since the previous heartbeat, so merging is a plain add and a
// worker restart inside one control connection cannot double-count.
// Gauges and callback-gauge samples are absolutes — last write wins.

// wireStats is one worker's metric delta since its previous heartbeat, in
// the same named form worker reports use (engine.WorkerReport).
type wireStats struct {
	// Counters and Times are deltas of monotone series (counter values, time
	// accumulators); Gauges are point-in-time absolutes.
	metrics.TypedValues
	// FnGauges are the worker's callback gauges evaluated at sample time
	// (per-task saturation, queue depths, credit-gate levels).
	FnGauges []telemetry.GaugeSample
	// Hists are interval histogram snapshots (current minus previous),
	// shipped only when the interval observed anything.
	Hists map[string]telemetry.HistogramSnapshot
}

// wireHeartbeat is the HEARTBEAT payload, the worker's one observability
// payload per tick. Stats is nil when the worker runs without a telemetry
// hub; the coordinator treats such a frame as pure liveness. Events are the
// tracer events since the previous beat, stamped with the origin's identity
// (Src, WSeq), and Dropped is how many events the shipping feed has dropped
// so far: shipping is best-effort by design — the feed never blocks the
// instrumented code — so Dropped is the honesty counter.
type wireHeartbeat struct {
	Stats   *wireStats        `json:",omitempty"`
	Events  []telemetry.Event `json:",omitempty"`
	Dropped int64             `json:",omitempty"`
}

// ---------------------------------------------------------------------------
// worker side: heartbeat sampler

// hbSampler turns a worker's telemetry hub into per-heartbeat deltas. It
// is used only from the single heartbeat goroutine, so it needs no locking
// of its own (the underlying snapshots are consistent).
type hbSampler struct {
	tel   *telemetry.Telemetry
	prev  metrics.TypedValues
	prevH map[string]telemetry.HistogramSnapshot
}

func newHBSampler(tel *telemetry.Telemetry) *hbSampler {
	return &hbSampler{tel: tel, prevH: make(map[string]telemetry.HistogramSnapshot)}
}

// sample returns the delta since the previous call (nil when the worker
// has no hub or nothing changed is still a valid, possibly empty, stats
// block — the heartbeat carries it regardless, keeping the wire shape
// uniform).
func (s *hbSampler) sample() *wireStats {
	if s.tel == nil {
		return nil
	}
	cur := s.tel.Registry().TypedSnapshot()
	out := &wireStats{
		TypedValues: metrics.TypedValues{
			Counters: make(map[string]int64),
			Gauges:   cur.Gauges,
			Times:    make(map[string]time.Duration),
		},
		FnGauges: s.tel.SampleGaugeFuncs(),
		Hists:    make(map[string]telemetry.HistogramSnapshot),
	}
	for n, v := range cur.Counters {
		if d := v - s.prev.Counters[n]; d > 0 {
			out.Counters[n] = d
		}
	}
	for n, v := range cur.Times {
		if d := v - s.prev.Times[n]; d > 0 {
			out.Times[n] = d
		}
	}
	for _, name := range s.tel.HistogramNames() {
		snap := s.tel.Histogram(name).Snapshot()
		delta := snap.Sub(s.prevH[name])
		s.prevH[name] = snap
		if delta.Count > 0 {
			out.Hists[name] = delta
		}
	}
	s.prev = cur
	return out
}

// ---------------------------------------------------------------------------
// coordinator side: aggregation

// decodeHeartbeat decodes worker's HEARTBEAT payload. A payload that does
// not decode, or whose stats would create a series under a name that fails
// metrics.CheckName, is an error wrapping engine.ErrControlPayload, and the
// frame is pure liveness: the names are another process's, so they are
// checked here (checkRelayed, and the callback-gauge families on top) and
// apply can trust them.
func decodeHeartbeat(payload []byte, worker string) (*wireHeartbeat, error) {
	var hb wireHeartbeat
	if err := engine.DecodePayload(payload, &hb); err != nil {
		return nil, err
	}
	if s := hb.Stats; s != nil {
		err := checkRelayed(s.TypedValues, s.Hists, metrics.WorkerMetricName(worker, ""), metrics.ClusterMetricName(""))
		for _, g := range s.FnGauges {
			if err == nil {
				err = metrics.CheckName(g.Family, metrics.FamilyName)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", engine.ErrControlPayload, err)
		}
	}
	return &hb, nil
}

// checkRelayed is the one name check of relayed series, shared by HEARTBEAT
// and DONE/STOPPED: it returns the first failure of metrics.CheckName over
// the histogram names in hists and the cell names in tv under each prefix
// they register under — a report's as they are (""), a heartbeat's under
// "worker.<id>." and the "cluster." rollup. (A heartbeat gauge has no
// rollup, but with a dotless worker ID both prefixes leave a name the same
// family, so checking it under both refuses nothing more.)
func checkRelayed(tv metrics.TypedValues, hists map[string]telemetry.HistogramSnapshot, prefixes ...string) error {
	var err error
	check := func(name string, kind metrics.Kind) {
		if err == nil {
			err = metrics.CheckName(name, kind)
		}
	}
	for _, p := range prefixes {
		for n := range tv.Counters {
			check(p+n, metrics.CellName)
		}
		for n := range tv.Times {
			check(p+n, metrics.CellName)
		}
		for n := range tv.Gauges {
			check(p+n, metrics.CellName)
		}
	}
	for n := range hists {
		check(n, metrics.HistogramName)
	}
	return err
}

// clusterAgg merges worker heartbeat stats and trace events into the
// coordinator's telemetry hub. A zero clusterAgg (nil hub) is disabled and
// every method is a cheap no-op.
type clusterAgg struct {
	tel *telemetry.Telemetry
	// mu orders a dead worker's drop after every callback-gauge set its
	// read loop relays: a heartbeat read just before the death must not
	// re-register what drop removed.
	mu   sync.Mutex
	dead map[string]bool // guarded by mu
}

// gaugeOwner names worker's set of relayed callback gauges on the hub.
func gaugeOwner(worker string) string { return "worker/" + worker }

// apply folds one worker's decoded heartbeat into the hub. Trace events are
// re-emitted into the cluster tracer: they keep their origin identity (Src,
// WSeq) and gain a fresh cluster sequence number and arrival timestamp — the
// merged timeline is ordered by arrival, causally consistent per origin via
// WSeq. Monotone series add under both the per-worker name and the cluster
// rollup; gauges and callback gauges land per-worker only (absolutes across
// workers have no meaningful sum). A heartbeat samples every callback gauge
// its worker has, so the worker's relayed set is replaced whole: a series
// the worker no longer registers (a task a rescale moved away) leaves.
func (a *clusterAgg) apply(worker string, hb *wireHeartbeat) {
	if a.tel == nil || hb == nil {
		return
	}
	reg, tr := a.tel.Registry(), a.tel.Tracer()
	for _, ev := range hb.Events {
		tr.Emit(ev)
	}
	if hb.Dropped > 0 {
		reg.Gauge(metrics.WorkerMetricName(worker, "trace_dropped")).Set(float64(hb.Dropped))
	}
	s := hb.Stats
	if s == nil {
		return
	}
	for n, d := range s.Counters {
		reg.Counter(metrics.WorkerMetricName(worker, n)).Inc(d)
		reg.Counter(metrics.ClusterMetricName(n)).Inc(d)
	}
	for n, d := range s.Times {
		reg.Time(metrics.WorkerMetricName(worker, n)).Add(d)
		reg.Time(metrics.ClusterMetricName(n)).Add(d)
	}
	for n, v := range s.Gauges {
		reg.Gauge(metrics.WorkerMetricName(worker, n)).Set(v)
	}
	gs := make([]telemetry.GaugeFunc, 0, len(s.FnGauges))
	for _, g := range s.FnGauges {
		labels := map[string]string{"worker": worker} // unless the origin set one
		maps.Copy(labels, g.Labels)
		v := g.Value
		gs = append(gs, telemetry.GaugeFunc{Family: g.Family, Labels: labels, Fn: func() float64 { return v }})
	}
	a.mu.Lock()
	if !a.dead[worker] {
		a.tel.ReplaceGaugeFuncs(gaugeOwner(worker), gs)
	}
	a.mu.Unlock()
	for n, snap := range s.Hists {
		if err := a.tel.Histogram(n).Absorb(snap); err != nil {
			reg.Counter("cluster.histogram_merge_errors").Inc(1)
		}
	}
}

// drop removes a dead worker's relayed callback gauges for good.
func (a *clusterAgg) drop(worker string) {
	if a.tel == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dead == nil {
		a.dead = make(map[string]bool)
	}
	a.dead[worker] = true
	a.tel.ReplaceGaugeFuncs(gaugeOwner(worker), nil)
}

// ---------------------------------------------------------------------------
// coordinator HTTP surface

// WorkerHealth is one worker's liveness as judged by the coordinator.
type WorkerHealth struct {
	Worker          int    `json:"worker"`
	ID              string `json:"id"`
	Addr            string `json:"addr"`
	Alive           bool   `json:"alive"`
	LastHeartbeatMS int64  `json:"last_heartbeat_ms"`
	Epoch           int64  `json:"epoch"`
}

// HealthReport is the /healthz body: cluster-level liveness plus the
// per-worker detail behind it.
type HealthReport struct {
	Healthy  bool           `json:"healthy"`
	Expected int            `json:"expected"`
	Joined   int            `json:"joined"`
	Attempt  int64          `json:"attempt"`
	Workers  []WorkerHealth `json:"workers"`
}

// connSnapshot copies the joined-connection slice under the join lock, so
// HTTP handlers can read it while WaitJoined is still accepting.
func (co *Coordinator) connSnapshot() []*coordConn {
	co.connMu.Lock()
	defer co.connMu.Unlock()
	out := make([]*coordConn, len(co.conns))
	copy(out, co.conns)
	return out
}

// Health reports cluster liveness: a worker is alive when its control
// connection has not errored and its last frame (heartbeats included) is
// within the heartbeat timeout — the same criterion the supervision loop
// uses, so /healthz flips for a SIGKILLed worker within one timeout.
func (co *Coordinator) Health() HealthReport {
	conns := co.connSnapshot()
	now := co.clk()
	rep := HealthReport{
		Expected: co.n,
		Joined:   len(conns),
		Attempt:  co.curAttempt.Load(),
		Healthy:  len(conns) >= co.n,
	}
	for w, cc := range conns {
		age := now.Sub(time.Unix(0, cc.lastSeen.Load()))
		alive := cc.alive.Load() && age <= co.opts.HeartbeatTimeout
		if !alive {
			rep.Healthy = false
		}
		rep.Workers = append(rep.Workers, WorkerHealth{
			Worker:          w,
			ID:              co.workerID(w),
			Addr:            cc.addr,
			Alive:           alive,
			LastHeartbeatMS: age.Milliseconds(),
			Epoch:           cc.lastEpoch.Load(),
		})
	}
	return rep
}

// ClusterHandler serves the coordinator's observability surface:
//
//	/metrics  cluster-merged Prometheus exposition (per-worker + rollups)
//	/events   the merged cluster trace ring as JSON
//	/healthz  liveness JSON; 200 when every expected worker is joined and
//	          heartbeat-fresh, 503 otherwise
//	/workers  the joined-worker roster as JSON
func (co *Coordinator) ClusterHandler() http.Handler {
	mux := http.NewServeMux()
	hub := co.opts.Telemetry.Handler()
	mux.Handle("/metrics", hub)
	mux.Handle("/events", hub)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		rep := co.Health()
		w.Header().Set("Content-Type", "application/json")
		if !rep.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/workers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(co.Health().Workers)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "capsys coordinator: /metrics (Prometheus), /events (JSON), /healthz, /workers")
	})
	return mux
}
