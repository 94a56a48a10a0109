package controller

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the coordinator side of the cluster observability plane.
// Worker processes piggyback compact metric snapshots on their HEARTBEAT
// frames and ship batched tracer events in TRACE frames; the coordinator
// merges both into its own telemetry hub, so one scrape of the
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

// wireHeartbeat is the HEARTBEAT payload, JSON-encoded: the JSON decoder
// allocates no more than the payload holds, where gob pre-sizes every map
// from an element count the sender declares, so one hostile beat could make
// the coordinator allocate without bound. Stats is nil when the worker runs
// without a telemetry hub (or its stats cannot be encoded); the coordinator
// treats the frame as pure liveness then.
type wireHeartbeat struct {
	Stats *wireStats
}

// wireTrace is the TRACE payload: a batch of tracer events stamped with
// the origin's identity (Src, WSeq), plus how many events the shipping
// feed has dropped so far. Shipping is best-effort by design — the feed
// never blocks the instrumented code — so Dropped is the honesty counter.
type wireTrace struct {
	Events  []telemetry.Event
	Dropped int64
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

// decodeHeartbeat returns a HEARTBEAT payload's stats, or nil — pure
// liveness — when the payload does not decode or would create a series
// under a name that fails metrics.CheckName: the names are another
// process's, so they are checked here and applyStats can trust them.
func decodeHeartbeat(payload []byte, worker string) *wireStats {
	var hb wireHeartbeat
	if json.Unmarshal(payload, &hb) != nil || hb.Stats == nil {
		return nil
	}
	s, ok := hb.Stats, true
	check := func(name string, kind metrics.Kind) {
		ok = ok && metrics.CheckName(name, kind) == nil
	}
	for n := range s.Counters {
		check(metrics.WorkerMetricName(worker, n), metrics.CellName)
		check(metrics.ClusterMetricName(n), metrics.CellName)
	}
	for n := range s.Times {
		check(metrics.WorkerMetricName(worker, n), metrics.CellName)
		check(metrics.ClusterMetricName(n), metrics.CellName)
	}
	for n := range s.Gauges {
		check(metrics.WorkerMetricName(worker, n), metrics.CellName)
	}
	for _, g := range s.FnGauges {
		check(g.Family, metrics.FamilyName)
	}
	for n := range s.Hists {
		check(n, metrics.HistogramName)
	}
	if !ok {
		return nil
	}
	return s
}

// clusterAgg merges worker heartbeat stats and trace batches into the
// coordinator's telemetry hub. A zero clusterAgg (nil hub) is disabled and
// every method is a cheap no-op.
type clusterAgg struct {
	tel *telemetry.Telemetry
}

func (a *clusterAgg) enabled() bool { return a.tel != nil }

// applyStats folds one worker's delta into the cluster registry: monotone
// series add under both the per-worker name and the cluster rollup; gauges
// and callback gauges land per-worker only (absolutes across workers have
// no meaningful sum).
func (a *clusterAgg) applyStats(worker string, s *wireStats) {
	if a.tel == nil || s == nil {
		return
	}
	reg := a.tel.Registry()
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
	for _, g := range s.FnGauges {
		labels := g.Labels
		if _, ok := labels["worker"]; !ok {
			labels = make(map[string]string, len(g.Labels)+1)
			for k, v := range g.Labels {
				labels[k] = v
			}
			labels["worker"] = worker
		}
		v := g.Value
		a.tel.SetGaugeFunc(g.Family, labels, func() float64 { return v })
	}
	for n, snap := range s.Hists {
		if err := a.tel.Histogram(n).Absorb(snap); err != nil {
			reg.Counter("cluster.histogram_merge_errors").Inc(1)
		}
	}
}

// applyTrace re-emits one worker's trace batch into the cluster tracer.
// Events keep their origin identity (Src, WSeq) and gain a fresh cluster
// sequence number and arrival timestamp — the merged timeline is ordered
// by arrival, causally consistent per origin via WSeq.
func (a *clusterAgg) applyTrace(worker string, wt *wireTrace) {
	if a.tel == nil || wt == nil {
		return
	}
	tr := a.tel.Tracer()
	for _, ev := range wt.Events {
		tr.Emit(ev)
	}
	if wt.Dropped > 0 {
		a.tel.Registry().Gauge(metrics.WorkerMetricName(worker, "trace_dropped")).Set(float64(wt.Dropped))
	}
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
		id := ""
		if w < len(co.spec.Workers) {
			id = co.spec.Workers[w].ID
		}
		rep.Workers = append(rep.Workers, WorkerHealth{
			Worker:          w,
			ID:              id,
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
