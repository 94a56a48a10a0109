package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported number. Reps holds the per-repetition values the
// reported median was taken from, so compare can judge a file's own spread.
// The unit comes from BENCHMARK.json when the result is printed.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
}

// workloadResult is everything one child process measured.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted_ops"`
	Failed    int64             `json:"failed_ops"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	WallS     float64           `json:"wall_s"`
}

func (r *workloadResult) set(name string, v float64, samples int, reps []float64) {
	r.Metrics[name] = metric{Value: v, Samples: samples, Reps: reps}
}

// setMedian reports the median of per-repetition values.
func (r *workloadResult) setMedian(name string, reps []float64) {
	if len(reps) > 0 {
		r.set(name, median(reps), len(reps), reps)
	}
}

func (r *workloadResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// cpuSeconds is the process's user+system CPU time so far, from the
// scheduler's nanosecond accounting (CLOCK_PROCESS_CPUTIME_ID). getrusage
// reports the same quantity sampled at timer ticks, which is too coarse for
// a repetition that lasts a fraction of a second; it is the fallback.
func cpuSeconds() float64 {
	const clockProcessCPUTime = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno == 0 {
		return float64(ts.Sec) + float64(ts.Nsec)/1e9
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// benchProcs is the GOMAXPROCS every workload runs at.
func benchProcs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// satSample is one saturated repetition with the process-level deltas taken
// around it.
type satSample struct {
	out        *repOut
	cpuS       float64
	allocBytes uint64
	allocs     uint64
}

// measured runs one repetition between CPU-clock and MemStats readings.
func measured(ctx context.Context, inst instance, m repMode) (*satSample, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	out, err := inst.rep(ctx, m)
	if err != nil {
		return nil, err
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	return &satSample{out: out, cpuS: cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, allocs: ms1.Mallocs - ms0.Mallocs}, nil
}

// runConfig is what the child process was asked to do.
type runConfig struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

// latencySummary reduces each repetition's latency samples (ns) to its p50,
// p99 and the highest percentile the sample supports, in ms.
type latencySummary struct {
	p50, p99, pmax []float64 // one entry per repetition
	pmaxP          float64
	samples        int
}

func (ls *latencySummary) add(lat []int64) {
	if len(lat) == 0 {
		return
	}
	s := lat // the caller hands the samples over; sorting in place spares a copy of millions
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ls.samples += len(s)
	ls.p50 = append(ls.p50, float64(percentile(s, 0.5))/1e6)
	ls.p99 = append(ls.p99, float64(percentile(s, 0.99))/1e6)
	p, v := pickTail(s)
	ls.pmaxP = p
	ls.pmax = append(ls.pmax, float64(v)/1e6)
}

// runWorkload is the child process: set up, check, measure, report.
//
// An untraced run spends 70 % of its budget on saturated repetitions and the
// rest on paced ones (at least one). A traced run halves the saturated share
// between untraced repetitions (the base for bench.trace_overhead_pct) and
// traced ones (spans, callback sampling, CPU profile), then runs one paced
// repetition, the extras and the micro-probes.
func runWorkload(ctx context.Context, cfg runConfig) (*workloadResult, error) {
	runtime.GOMAXPROCS(benchProcs())
	start := time.Now()
	p := fullParams()
	if cfg.quick {
		p = quickParams()
	}
	r := &workloadResult{Workload: cfg.workload.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds, Metrics: map[string]metric{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload.name)
	}

	// Set-up, several times over: setup_s is their median, so work a later
	// change moves out of the measured phase still shows. Three times at
	// least, and up to seven while that takes under two seconds.
	var inst instance
	var setupS []float64
	for setupStart := time.Now(); ; {
		if n := len(setupS); n >= 7 || (n >= 3 && time.Since(setupStart) > 2*time.Second) || (n >= 1 && cfg.trace) {
			break
		}
		t0 := time.Now()
		err := tr.do("bench", "set-up", func() (err error) {
			if inst, err = cfg.workload.setup(ctx, p, cfg.seed, tr); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			if _, err = inst.rep(ctx, repMode{warm: true, tr: tr}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r.setMedian("setup_s", setupS)

	t0 := time.Now()
	if err := tr.do("bench", "reference", func() error { return inst.reference(ctx) }); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	refS := time.Since(t0).Seconds()

	measureStart := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	satShare, minSat := budget, 3
	if cfg.workload.hasPaced {
		satShare = budget * 7 / 10
	}
	if cfg.trace {
		satShare, minSat = satShare/2, 2
	}

	var sat []*satSample
	for len(sat) < minSat || time.Since(measureStart) < satShare {
		s, err := measured(ctx, inst, repMode{})
		if err != nil {
			return nil, fmt.Errorf("saturated repetition: %w", err)
		}
		sat = append(sat, s)
	}
	summarizeSaturated(r, sat)

	var layer *layerCollector
	if cfg.trace {
		layer = newLayerCollector(cfg, r, tr, refS)
		if err := layer.tracedPhase(ctx, inst, sat, measureStart.Add(2*satShare)); err != nil {
			return nil, err
		}
		resultMetrics(r, append(append([]*satSample(nil), sat...), layer.traced...))
	} else {
		resultMetrics(r, sat)
	}

	lat := &latencySummary{}
	var late []int64
	var overrun []float64
	if cfg.workload.hasPaced {
		for n := 0; n < 1 || (!cfg.trace && time.Since(measureStart) < budget); n++ {
			out, err := inst.rep(ctx, repMode{paced: true})
			if err != nil {
				return nil, fmt.Errorf("paced repetition: %w", err)
			}
			r.Attempted += out.ops
			r.Failed += out.failed
			lat.add(out.lat)
			late = append(late, out.late...)
			overrun = append(overrun, out.overrunPct)
			if out.overrunPct > maxOverrunPct {
				r.note("paced repetition %d: sustained=false (overran its schedule by %.1f%%)", n, out.overrunPct)
			}
		}
	} else {
		for _, s := range sat {
			lat.add(s.out.lat)
		}
	}
	r.set("latency_p50_ms", median(lat.p50), lat.samples, lat.p50)
	r.set("latency_p99_ms", median(lat.p99), lat.samples, lat.p99)

	if cfg.trace {
		if err := layer.finish(ctx, inst, lat, late, overrun); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	r.WallS = time.Since(start).Seconds()
	return r, nil
}

// summarizeSaturated turns the saturated repetitions into throughput_rps and
// cpu_us_per_rec and counts their operations.
func summarizeSaturated(r *workloadResult, sat []*satSample) {
	var tput, cpu []float64
	for _, s := range sat {
		r.Attempted += s.out.ops
		r.Failed += s.out.failed
		if s.out.elapsed > 0 {
			tput = append(tput, float64(s.out.ops)/s.out.elapsed.Seconds())
		}
		if s.out.ops > 0 {
			cpu = append(cpu, s.cpuS*1e6/float64(s.out.ops))
		}
	}
	r.setMedian("throughput_rps", tput)
	r.setMedian("cpu_us_per_rec", cpu)
}

// printReport writes every metric by name with unit and sample count.
func printReport(spec *benchSpec, r *workloadResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d trace %v: attempted_ops=%d failed_ops=%d wall=%.1fs\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.WallS)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-44s %14.6g %-6s n=%d\n", n, m.Value, spec.unit(n), m.Samples)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}
