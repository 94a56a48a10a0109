// Command caplive executes a benchmark query on the live mini streaming
// engine under a chosen placement strategy, with real operators (windows,
// joins, sessions over generated Nexmark events), bounded channels and
// shared per-worker resource meters — so placement quality shows up as
// actual wall-clock throughput.
//
// Examples:
//
//	caplive -query Q1-sliding -strategy caps -records 5000
//	caplive -query Q1-sliding -strategy worst -records 5000   # pack the heavy operator
//	caplive -query Q1-sliding -metrics-addr :9090             # curl :9090/metrics mid-run
//	caplive -query Q1-sliding -trace-out run.jsonl            # structured event trace
//	caplive -query Q1-sliding -transport batched -batch-size 64       # batched exchange layer
//	caplive -checkpoint-every 200 -kill-worker 1 -slots 6 -trace-out f.jsonl  # kill, re-place, restore
//	caplive -checkpoint-every 100 -rescale slide-win=6 -source-rate 20000      # live rescale
//
// Distributed mode runs the same job as one coordinator plus N worker OS
// processes, with the data plane on TCP (see DESIGN.md §12):
//
//	caplive -listen 127.0.0.1:7000 -query Q2-join -workers 3 -checkpoint-every 200
//	caplive -join 127.0.0.1:7000      # run one of these per worker, any host
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr registers the /debug/pprof handlers
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/controller"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/telemetry"
)

// liveFlags are the flags only caplive has; the cluster and placement ones
// are in cliflags.Common.
type liveFlags struct {
	records      int64
	transport    string
	batchSize    int
	batchLinger  time.Duration
	fuse         string
	rescale      string
	rescaleEpoch int64
	sourceRate   float64
	traceOut     string
	costScale    float64
	timeout      time.Duration
	metricsAddr  string
	ckptEvery    int64
	killWorker   int
	killEpoch    int64
	listenAddr   string
	joinAddr     string
	hbEvery      time.Duration
	pprofAddr    string
}

// registerFlags declares every caplive flag on fs.
func registerFlags(fs *flag.FlagSet) (*cliflags.Common, *liveFlags) {
	f := &cliflags.Common{
		Query: "Q1-sliding", Strategy: "caps",
		Workers: 4, Slots: 4, Cores: 2, IOBps: 50e6, NetBps: 500e6,
	}
	f.Register(fs, map[string]string{
		"strategy": "placement: caps|default|evenly|random|greedy|worst",
		"seed":     "seed for randomized strategies and event generation",
		"cores":    "CPU cores per worker (engine meter)",
	})
	o := &liveFlags{}
	fs.Int64Var(&o.records, "records", 5000, "records per source task")
	fs.StringVar(&o.transport, "transport", engine.TransportUnary, "data-plane exchange: unary|batched|network (forced to network in -listen/-join mode)")
	fs.IntVar(&o.batchSize, "batch-size", 0, "batched/network transport: records per batch (0 = engine default)")
	fs.DurationVar(&o.batchLinger, "batch-linger", 0, "batched/network transport: max wait for a partial batch (0 = engine default, negative disables)")
	fs.StringVar(&o.fuse, "fuse", "on", "operator fusion: run co-located Forward chains as one goroutine, bypassing the exchange (on|off)")
	fs.StringVar(&o.rescale, "rescale", "", "live rescale: comma-separated op=parallelism changes applied at -rescale-epoch (requires -checkpoint-every; local and -listen modes)")
	fs.Int64Var(&o.rescaleEpoch, "rescale-epoch", 2, "checkpoint epoch at which -rescale fires")
	fs.Float64Var(&o.sourceRate, "source-rate", 0, "throttle each source task to this records/s (0 = unthrottled; local and -listen modes)")
	fs.StringVar(&o.traceOut, "trace-out", "", "append structured trace events as JSONL to this file")
	fs.Float64Var(&o.costScale, "cost-scale", 1, "multiply profiled per-record CPU costs")
	fs.DurationVar(&o.timeout, "timeout", 5*time.Minute, "run timeout")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live telemetry over HTTP (/metrics Prometheus, /events JSON) on this address")
	fs.Int64Var(&o.ckptEvery, "checkpoint-every", 0, "inject a checkpoint barrier every N source records (0 disables)")
	fs.IntVar(&o.killWorker, "kill-worker", -1, "local mode: kill this worker when it passes -kill-epoch; the strategy re-places its tasks on the survivors and the job restarts from the last complete checkpoint (-1 disables)")
	fs.Int64Var(&o.killEpoch, "kill-epoch", 1, "checkpoint epoch at which -kill-worker fires")
	fs.StringVar(&o.listenAddr, "listen", "", "coordinator mode: run the control plane on this address and wait for -workers joiners")
	fs.StringVar(&o.joinAddr, "join", "", "worker mode: join the coordinator at this address and serve deploys until shutdown")
	fs.DurationVar(&o.hbEvery, "heartbeat-every", 0, "worker mode: heartbeat interval, which also paces metric and trace shipping (0 = 500ms default)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof (/debug/pprof) on this address, in any mode")
	return f, o
}

func main() {
	f, o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := dispatch(f, o); err != nil {
		fmt.Fprintln(os.Stderr, "caplive:", err)
		os.Exit(1)
	}
}

func dispatch(f *cliflags.Common, o *liveFlags) error {
	// Flags are checked before any mode starts listening or joining.
	eo, err := validate(f, o)
	if err != nil {
		return err
	}
	if o.pprofAddr != "" {
		stop, err := servePprof(o.pprofAddr)
		if err != nil {
			return err
		}
		defer stop()
	}
	switch {
	case o.joinAddr != "":
		return runJoin(f, o)
	case o.listenAddr != "":
		return runCoordinator(f, o, eo)
	default:
		return run(f, o, eo)
	}
}

// validate checks the flag combination for every mode and returns the
// engine options the flags determine.
func validate(f *cliflags.Common, o *liveFlags) (engine.JobOptions, error) {
	eo, err := o.engineOptions(f.Query)
	if err != nil {
		return eo, err
	}
	switch {
	case o.costScale <= 0:
		return eo, fmt.Errorf("-cost-scale must be > 0 (got %v)", o.costScale)
	case o.listenAddr != "" && o.joinAddr != "":
		return eo, fmt.Errorf("-listen and -join are mutually exclusive")
	case o.joinAddr != "":
		return eo, nil // the job's flags are the coordinator's to check
	case len(eo.Rescales) > 0 && o.ckptEvery <= 0:
		return eo, fmt.Errorf("-rescale requires -checkpoint-every > 0 (rescales are epoch-aligned)")
	case o.listenAddr != "" && o.killWorker >= 0:
		return eo, fmt.Errorf("-kill-worker is local-mode only: in a -listen cluster a worker dies by a SIGKILL of its -join process")
	case o.killWorker >= 0 && o.ckptEvery <= 0:
		return eo, fmt.Errorf("-kill-worker requires -checkpoint-every > 0 (kills are epoch-aligned)")
	case o.killWorker >= f.Workers:
		return eo, fmt.Errorf("-kill-worker %d out of range (workers: %d)", o.killWorker, f.Workers)
	case o.killWorker >= 0 && f.Workers < 2:
		return eo, fmt.Errorf("-kill-worker needs at least 2 workers")
	case o.killWorker >= 0 && f.Strategy == "worst":
		return eo, fmt.Errorf("-kill-worker under -strategy worst: worst is a fixed plan with no strategy to re-place the dead worker's tasks")
	case o.killWorker >= 0:
		// The strategy re-places the dead worker's tasks on the survivors.
		spec, err := nexmark.ByName(f.Query)
		if err != nil {
			return eo, err
		}
		tasks, survivors := spec.Graph.TotalTasks(), f.Workers-1
		if survivors*f.Slots < tasks {
			need := (tasks + survivors - 1) / survivors
			return eo, fmt.Errorf("-kill-worker %d: %d survivors with -slots %d cannot host %s's %d tasks; use -slots %d or more",
				o.killWorker, survivors, f.Slots, f.Query, tasks, need)
		}
	}
	return eo, nil
}

// engineOptions maps the engine flags onto the job options every mode
// shares: -source-rate throttles every source of the query, and a -rescale
// "op=parallelism[,op=parallelism]" spec is one change of several operators
// at -rescale-epoch, applied in one drain.
func (o *liveFlags) engineOptions(query string) (engine.JobOptions, error) {
	eo := engine.JobOptions{
		RecordsPerSource: o.records,
		SnapshotInterval: o.ckptEvery,
		Transport:        o.transport,
		BatchSize:        o.batchSize,
		BatchLinger:      o.batchLinger,
	}
	if o.sourceRate > 0 {
		spec, err := nexmark.ByName(query)
		if err != nil {
			return eo, err
		}
		eo.SourceRate = map[dataflow.OperatorID]float64{}
		for _, src := range spec.Graph.Sources() {
			eo.SourceRate[src.ID] = o.sourceRate
		}
	}
	switch o.fuse {
	case "on", "":
	case "off":
		eo.DisableFusion = true
	default:
		return eo, fmt.Errorf("-fuse must be on or off (got %q)", o.fuse)
	}
	if o.rescale == "" {
		return eo, nil
	}
	for _, kv := range strings.Split(o.rescale, ",") {
		op, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || op == "" {
			return eo, fmt.Errorf("-rescale entry %q: want op=parallelism", kv)
		}
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			return eo, fmt.Errorf("-rescale entry %q: parallelism must be a positive integer", kv)
		}
		eo.Rescales = append(eo.Rescales, engine.RescalePlan{Op: dataflow.OperatorID(op), Parallelism: p, AtEpoch: o.rescaleEpoch})
	}
	return eo, nil
}

// launch places and binds the query the flags name and prints the plan.
// "worst" is plan-only: it has no live strategy, so nothing re-places it.
func launch(f *cliflags.Common, o *liveFlags) (*controller.Deployment, error) {
	spec, err := nexmark.ByName(f.Query)
	if err != nil {
		return nil, err
	}
	c, err := f.Cluster()
	if err != nil {
		return nil, err
	}
	lo := controller.LaunchOptions{Seed: f.Seed, CPUCostScale: o.costScale}
	var strat placement.Strategy
	if f.Strategy == "worst" {
		phys, err := dataflow.Expand(spec.Graph)
		if err != nil {
			return nil, err
		}
		lo.Plan = nexmark.FlinkWorstCase(phys, f.Slots)
	} else if strat, err = placement.ByName(f.Strategy); err != nil {
		return nil, err
	}
	d, err := controller.Launch(context.Background(), spec, c, strat, lo)
	if err != nil {
		return nil, err
	}
	fmt.Printf("plan (%s):\n%s\n", f.Strategy, d.Plan)
	return d, nil
}

// observe wires a hub to the outside: trace events append to traceOut as
// JSONL and the hub's /metrics and /events are served on metricsAddr, each
// only when non-empty. The bound address is announced on stdout. stop
// releases both; call it after the run, then check the tracer's SinkErr.
func observe(tel *telemetry.Telemetry, traceOut, metricsAddr string) (stop func(), err error) {
	var closers []io.Closer
	stop = func() {
		for _, c := range closers {
			c.Close()
		}
	}
	if traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open -trace-out: %w", err)
		}
		closers = append(closers, f)
		tel.Tracer().SetSink(f)
	}
	if metricsAddr != "" {
		srv, bound, err := tel.Serve(metricsAddr)
		if err != nil {
			stop()
			return nil, err
		}
		closers = append(closers, srv)
		fmt.Printf("telemetry: serving http://%s/metrics and /events\n", bound)
	}
	return stop, nil
}

// resultLines renders how a live run ended, in local and -listen mode
// alike: "finished in <elapsed>: ...", the rescale line when any was
// applied, the recovery line and the controller's share of the run (read
// from the controller.* series Deployment.Run and the coordinator export).
func resultLines(res *engine.JobResult) string {
	out := fmt.Sprintf("finished in %v: %d source records (%.0f rec/s), %d sink records\n",
		res.Elapsed.Round(time.Millisecond), res.SourceRecords,
		float64(res.SourceRecords)/res.Elapsed.Seconds(), res.SinkRecords)
	if res.Rescales > 0 {
		out += fmt.Sprintf("rescale: %d applied, downtime %v, moved %d state bytes, reprocessed %d records\n",
			res.Rescales, res.RescaleDowntime.Round(time.Millisecond), res.RescaleMovedBytes, res.RecordsReprocessed)
	}
	out += fmt.Sprintf("recovery: %d recoveries, restored epoch %d, downtime %v, reprocessed %d records, lost %d records\n",
		res.Recoveries, res.RestoredEpoch, res.Downtime.Round(time.Millisecond), res.RecordsReprocessed, res.LostRecords)
	snap := res.Metrics.Snapshot()
	return out + fmt.Sprintf("controller: placement %.1f ms, re-placement %.1f ms, %.0f tasks moved\n",
		snap["controller.placement_seconds"]*1e3, snap["controller.replacement_seconds"]*1e3, snap["controller.tasks_moved"])
}

// servePprof exposes net/http/pprof's default-mux handlers on addr — live
// goroutine dumps, heap profiles and CPU profiles for any caplive role.
func servePprof(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("pprof: serving http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// runJoin is worker mode: a long-lived process serving deploy/start/abort
// cycles from the coordinator. It exits 0 when the coordinator shuts the
// cluster down. The worker's telemetry hub feeds three consumers: the
// heartbeat piggyback to the coordinator, an optional local -metrics-addr
// scrape endpoint, and an optional local -trace-out JSONL file.
func runJoin(f *cliflags.Common, o *liveFlags) error {
	tel := telemetry.New()
	tel.RegisterRuntimeGauges()
	stop, err := observe(tel, o.traceOut, o.metricsAddr)
	if err != nil {
		return err
	}
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	return controller.JoinCluster(ctx, o.joinAddr, controller.NexmarkBuilderWith(tel), controller.JoinOptions{
		Logf: func(format string, args ...any) {
			fmt.Printf("worker: "+format+"\n", args...)
		},
		Telemetry:      tel,
		HeartbeatEvery: o.hbEvery,
	})
}

// runCoordinator is coordinator mode: launch exactly as a local run would,
// then deploy across joined worker processes over the network transport and
// supervise to completion; worker deaths and rescales are re-placed by the
// strategy over the survivors.
func runCoordinator(f *cliflags.Common, o *liveFlags, eo engine.JobOptions) error {
	d, err := launch(f, o)
	if err != nil {
		return err
	}
	// The coordinator's hub is the cluster aggregation point: worker
	// heartbeat deltas and trace events merge into it (DESIGN.md §9).
	tel := telemetry.New()
	tel.RegisterRuntimeGauges()
	stop, err := observe(tel, o.traceOut, "")
	if err != nil {
		return err
	}
	defer stop()
	co, err := d.Coordinator(o.listenAddr, f.Workers, eo, controller.CoordinatorOptions{
		Logf: func(format string, args ...any) {
			fmt.Printf("coordinator: "+format+"\n", args...)
		},
		Telemetry: tel,
	})
	if err != nil {
		return err
	}
	defer co.Shutdown()
	if o.metricsAddr != "" {
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("telemetry listen %s: %w", o.metricsAddr, err)
		}
		srv := &http.Server{Handler: co.ClusterHandler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		fmt.Printf("cluster telemetry: serving http://%s/metrics /events /healthz /workers\n", ln.Addr())
	}
	fmt.Printf("coordinator: control plane on %s, waiting for %d workers\n", co.Addr(), f.Workers)
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	if err := co.WaitJoined(ctx); err != nil {
		return err
	}
	res, err := co.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Print(resultLines(res))
	snap := res.Metrics.Snapshot()
	fmt.Printf("network: %.0f data batches, %.0f credit frames, %.0f frames sent, %.0f bytes sent\n",
		snap["net.data_batches"], snap["net.credit_frames"], snap["net.frames_sent"], snap["net.bytes_sent"])
	// One machine-parseable line for the process-level test battery. Every
	// value must render as an integer (the battery parses all pairs as
	// int64).
	fmt.Printf("dist: sink_records=%d source_records=%d lost_records=%d recoveries=%d restored_epoch=%d snapshots=%d reprocessed=%d net_frames=%d net_bytes=%d credit_wait_p99_us=%d unexpected_frames=%d rescales=%d rescale_moved_bytes=%d\n",
		res.SinkRecords, res.SourceRecords, res.LostRecords, res.Recoveries,
		res.RestoredEpoch, res.SnapshotsTaken, res.RecordsReprocessed,
		int64(snap["net.frames_sent"]), int64(snap["net.bytes_sent"]),
		int64(snap["net.credit_wait_p99_us"]), int64(snap["net.unexpected_frames"]),
		res.Rescales, res.RescaleMovedBytes)
	if err := tel.Tracer().SinkErr(); err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}
	return nil
}

// run is local mode: the whole job in this process. A -kill-worker is
// recovered as a -listen cluster recovers a dead worker process: the
// strategy re-places its tasks on the survivors and the job restarts from the
// last complete checkpoint.
func run(f *cliflags.Common, o *liveFlags, eo engine.JobOptions) error {
	d, err := launch(f, o)
	if err != nil {
		return err
	}
	tel := telemetry.New()
	stop, err := observe(tel, o.traceOut, o.metricsAddr)
	if err != nil {
		return err
	}
	defer stop()
	eo.Telemetry = tel
	if o.killWorker >= 0 {
		eo.FaultPlan.KillWorkers = []engine.WorkerKill{{Worker: o.killWorker, AtEpoch: o.killEpoch}}
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	out, err := d.Run(ctx, eo)
	if err != nil {
		return err
	}
	res := out.Result
	fmt.Print(resultLines(res))
	snap := res.Metrics.Snapshot()
	mean := 0.0
	if b := snap["exchange.batches"]; b > 0 {
		mean = snap["exchange.batch_records"] / b
	}
	fmt.Printf("exchange: %s transport, %.0f batches (mean %.1f records), %.0f credit stalls (%.3fs waiting)\n",
		out.Transport, snap["exchange.batches"], mean,
		snap["exchange.credit_stalls"], snap["exchange.credit_stall_seconds"])
	if err := tel.Tracer().SinkErr(); err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}

	fmt.Print(summarize(res.Metrics, tel))
	return nil
}

// summarize renders a per-operator table (heaviest first) from the job's
// metrics registry, joining the per-task "<op>[<i>].<metric>" series with
// the hub's end-to-end latency percentiles.
func summarize(reg *metrics.Registry, tel *telemetry.Telemetry) string {
	type opStat struct {
		in              int64
		useful, maxBack float64
	}
	agg := map[string]*opStat{}
	for name, v := range reg.Snapshot() {
		tm, ok := metrics.ParseTaskMetricName(name)
		if !ok {
			continue
		}
		a := agg[tm.Op]
		if a == nil {
			a = &opStat{}
			agg[tm.Op] = a
		}
		switch tm.Metric {
		case "records_in":
			a.in += int64(v)
		case "useful_fraction":
			if v > a.useful {
				a.useful = v
			}
		case "backpressure_seconds":
			if v > a.maxBack {
				a.maxBack = v
			}
		}
	}
	var ops []string
	for op := range agg {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := fmt.Sprintf("\n%-14s %10s %14s %16s %10s %10s %10s\n",
		"operator", "records", "peak useful", "peak bp (s)", "p50 (ms)", "p95 (ms)", "p99 (ms)")
	for _, op := range ops {
		a := agg[op]
		p50, p95, p99 := "-", "-", "-"
		if h := tel.Histogram("latency." + op); h.Count() > 0 {
			snap := h.Snapshot()
			p50 = fmt.Sprintf("%.2f", snap.Quantile(0.5)*1e3)
			p95 = fmt.Sprintf("%.2f", snap.Quantile(0.95)*1e3)
			p99 = fmt.Sprintf("%.2f", snap.Quantile(0.99)*1e3)
		}
		out += fmt.Sprintf("%-14s %10d %14.2f %16.2f %10s %10s %10s\n",
			op, a.in, a.useful, a.maxBack, p50, p95, p99)
	}
	return out
}
