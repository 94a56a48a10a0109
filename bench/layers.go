package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"capsys/internal/telemetry"
)

// layerCollector gathers the per-layer numbers of a traced run: what the
// program's own results already say (JobResult, res.Metrics, caps.Result),
// the micro-probes, the CPU-profile attribution, and the few extra
// repetitions that answer one question each.
type layerCollector struct {
	cfg  runConfig
	r    *workloadResult
	tr   *tracer
	refS float64

	profile  *os.File
	traced   []*satSample
	untraced []*satSample
}

func newLayerCollector(cfg runConfig, r *workloadResult, tr *tracer, refS float64) *layerCollector {
	return &layerCollector{cfg: cfg, r: r, tr: tr, refS: refS}
}

func rps(s *satSample) float64 {
	if s.out.elapsed <= 0 {
		return 0
	}
	return float64(s.out.ops) / s.out.elapsed.Seconds()
}

func medianOf(ss []*satSample, f func(*satSample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// tracedPhase repeats the saturated repetitions with spans, callback
// sampling and a CPU profile of this process on, until deadline.
func (l *layerCollector) tracedPhase(ctx context.Context, inst instance, untraced []*satSample, deadline time.Time) error {
	l.untraced = untraced
	if err := os.MkdirAll(l.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(l.cfg.outDir, "cpu-"+l.cfg.workload.name+".pprof"))
	if err != nil {
		return err
	}
	l.profile = f
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	for len(l.traced) < 2 || time.Now().Before(deadline) {
		s, err := measured(ctx, inst, repMode{tr: l.tr})
		if err != nil {
			pprof.StopCPUProfile()
			f.Close()
			return fmt.Errorf("traced repetition: %w", err)
		}
		l.r.Attempted += s.out.ops
		l.r.Failed += s.out.failed
		l.traced = append(l.traced, s)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	base, traced := medianOf(untraced, rps), medianOf(l.traced, rps)
	if base > 0 {
		l.r.set("bench.trace_overhead_pct", 100*(1-traced/base), len(l.traced), nil)
	}
	return nil
}

// finish computes every remaining per-layer number and writes the span file.
func (l *layerCollector) finish(ctx context.Context, inst instance, lat *latencySummary, late []int64, overrun []float64) error {
	r := l.r
	r.set("bench.reference_s", l.refS, 1, nil)

	// Load generator quality and the latency tail the sample supports.
	if len(late) > 0 {
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		r.set("loadgen.late_p99_ms", float64(percentile(late, 0.99))/1e6, len(late), nil)
	}
	if len(overrun) > 0 {
		r.set("loadgen.paced_overrun_pct", median(overrun), len(overrun), overrun)
	}
	if len(lat.pmax) > 0 {
		r.set("loadgen.latency_pmax_ms", median(lat.pmax), lat.samples, lat.pmax)
		r.note("loadgen.latency_pmax_ms is the p%g of each repetition", lat.pmaxP*100)
	}

	if err := l.extras(ctx, inst); err != nil {
		return err
	}

	l.frameProbes()
	l.meterProbes()
	l.stateProbes(r.Metrics["statebackend.state_bytes_end"].Value)
	l.telemetryProbes()
	if err := l.placementProbes(ctx); err != nil {
		return err
	}

	// Time inside the bench's own operator callbacks, scaled up from the
	// one-in-64 sample; Run minus this is the engine's self time.
	var tracedOps int64
	for _, s := range l.traced {
		tracedOps += s.out.ops
	}
	if tracedOps > 0 && l.cfg.workload.hasPaced {
		r.set("engine.operator.userfn_ns_per_rec", float64(l.tr.userNS.Load())*sampleEvery/float64(tracedOps), int(tracedOps/sampleEvery), nil)
	}

	raw, err := os.ReadFile(l.profile.Name())
	if err != nil {
		return err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return err
	}
	shares := cpuShares(samples)
	for _, b := range cpuBuckets {
		r.set("cpu_share."+b, shares[b], len(samples), nil)
	}

	r.set("runtime.peak_rss_mb", peakRSSMB(), 1, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_cpu_share", ms.GCCPUFraction, 1, nil)

	return l.tr.write(filepath.Join(l.cfg.outDir, "trace-"+l.cfg.workload.name+".json"))
}

// peakRSSMB is this process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resultMetrics reads the layer numbers that cost nothing — they are in the
// results the repetitions returned — so untraced runs report them too. Each
// is the median over repetitions.
func resultMetrics(r *workloadResult, ss []*satSample) {
	perRep := map[string][]float64{}
	add := func(name string, v float64) { perRep[name] = append(perRep[name], v) }
	var busiest, blocked string
	for _, s := range ss {
		for k, v := range s.out.layer {
			add(k, v)
		}
		if s.out.ops > 0 {
			add("runtime.alloc_bytes_per_rec", float64(s.allocBytes)/float64(s.out.ops))
			add("runtime.allocs_per_rec", float64(s.allocs)/float64(s.out.ops))
		}
		res := s.out.res
		if res == nil {
			continue
		}
		recs := float64(res.SourceRecords)
		krec := recs / 1e3
		snap := res.Metrics.Snapshot()

		var busyMax, bpMax float64
		for id, ts := range res.Tasks {
			if b := ts.BusyTime.Seconds() / res.Elapsed.Seconds(); b > busyMax {
				busyMax, busiest = b, id.String()
			}
			if b := ts.BackpressureT.Seconds() / res.Elapsed.Seconds(); b > bpMax {
				bpMax, blocked = b, id.String()
			}
		}
		add("engine.operator.busy_share_max", busyMax)
		add("engine.operator.bp_share_max", bpMax)

		add("engine.fuse.chains", snap["engine.fuse.chains"])
		var processed float64
		for _, ts := range res.Tasks {
			processed += float64(ts.RecordsIn)
		}
		if processed > 0 {
			add("engine.fuse.records_share", snap["engine.fuse.records"]/processed)
		}

		var cpuU, ioU, netU float64
		for name, v := range snap {
			if !strings.HasPrefix(name, "worker.") {
				continue
			}
			switch {
			case strings.HasSuffix(name, ".cpu_saturation"):
				cpuU = max(cpuU, v)
			case strings.HasSuffix(name, ".io_saturation"):
				ioU = max(ioU, v)
			case strings.HasSuffix(name, ".net_saturation"):
				netU = max(netU, v)
			}
		}
		add("engine.resources.cpu_util_max", cpuU)
		add("engine.resources.io_util_max", ioU)
		add("engine.resources.net_util_max", netU)

		if krec > 0 {
			add("engine.exchange.batches_per_krec", snap["exchange.batches"]/krec)
			add("engine.exchange.credit_stalls_per_krec", snap["exchange.credit_stalls"]/krec)
			add("engine.netexchange.frames_per_krec", snap["net.frames_sent"]/krec)
			add("engine.netexchange.data_batches_per_krec", snap["net.data_batches"]/krec)
			add("engine.netexchange.credit_frames_per_krec", snap["net.credit_frames"]/krec)
			add("engine.netexchange.bytes_per_rec", snap["net.bytes_sent"]/recs)
		}
		if b := snap["exchange.batches"]; b > 0 {
			add("engine.exchange.batch_mean_records", snap["exchange.batch_records"]/b)
		}
		add("engine.exchange.credit_stall_s", snap["exchange.credit_stall_seconds"])
		add("engine.netexchange.credit_wait_p99_us", snap["net.credit_wait_p99_us"])
		add("engine.netexchange.reconnects", snap["net.reconnects"])
		add("engine.netexchange.encode_errors", snap["net.encode_errors"])
		add("engine.netexchange.unexpected_frames", snap["net.unexpected_frames"])

		add("engine.checkpoint.snapshots_taken", float64(res.SnapshotsTaken))
		add("engine.checkpoint.recovery_downtime_ms", res.Downtime.Seconds()*1e3)
		add("engine.checkpoint.reprocessed_records", float64(res.RecordsReprocessed))
		add("engine.rescale.downtime_ms", res.RescaleDowntime.Seconds()*1e3)
		add("engine.rescale.moved_bytes", float64(res.RescaleMovedBytes))
		add("statebackend.state_bytes_end", snap["state.total_bytes"])
	}
	for name, reps := range perRep {
		r.set(name, median(reps), len(reps), reps)
	}
	if busiest != "" {
		r.note("busiest task %s; most backpressured task %s (last repetition)", busiest, blocked)
	}
}

// extras are the single extra repetitions of a traced run, each answering
// one question on the workload it concerns.
func (l *layerCollector) extras(ctx context.Context, inst instance) error {
	r, name := l.r, l.cfg.workload.name
	base := medianOf(l.untraced, rps)
	one := func(what string, m repMode) (*repOut, error) {
		var out *repOut
		err := l.tr.do("bench", what, func() (err error) {
			out, err = inst.rep(ctx, m)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		r.Attempted += out.ops
		r.Failed += out.failed
		return out, nil
	}
	rate := func(o *repOut) float64 { return float64(o.ops) / o.elapsed.Seconds() }

	if name == "fanout-net" || name == "nexjoin-dist" {
		// Telemetry attached: the source loop changes its clocking mode,
		// and the wire's wait histograms become readable.
		tel := telemetry.New()
		out, err := one("telemetry-on", repMode{tel: tel})
		if err != nil {
			return err
		}
		if base > 0 {
			r.set("telemetry.on_overhead_pct", 100*(1-rate(out)/base), 1, nil)
		}
		credit, grant := tel.Histogram("net.credit_wait_seconds").Snapshot(), tel.Histogram("net.grant_wait_seconds").Snapshot()
		r.set("engine.netexchange.credit_wait_s", credit.Sum, int(credit.Count), nil)
		r.set("engine.netexchange.grant_wait_s", grant.Sum, int(grant.Count), nil)
	}
	if name == "fanout-net" {
		// The single-threaded baseline of the same job.
		prev := runtime.GOMAXPROCS(1)
		out, err := one("gomaxprocs-1", repMode{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return err
		}
		r.set("runtime.rps_gomaxprocs1", rate(out), 1, nil)
	}
	if pw, ok := inst.(*placedWorkload); ok {
		// The same metered run under Flink's default placement, and the
		// simulator's prediction for the CAPS plan.
		out, err := one("default-plan", repMode{defaultPlan: true})
		if err != nil {
			return err
		}
		if d := rate(out); d > 0 {
			r.set("placement.gain_over_default", base/d, 1, nil)
		}
		predicted, evalUS, err := pw.simulate(l.tr)
		if err != nil {
			return err
		}
		r.set("simulator.evaluate_us", evalUS, 1, nil)
		r.set("simulator.predicted_rps", predicted, 1, nil)
		if base > 0 {
			diff := predicted - base
			if diff < 0 {
				diff = -diff
			}
			r.set("simulator.fidelity_rel_err", diff/base, 1, nil)
		}
	}
	return nil
}
