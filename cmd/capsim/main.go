// Command capsim runs simulated stream-processing experiments: deploy one or
// more queries on a cluster under a placement strategy and report the
// steady-state throughput, backpressure and latency per query, plus
// per-worker utilization.
//
// Examples:
//
//	capsim -query Q2-join -strategy caps
//	capsim -query Q1-sliding,Q3-inf -strategy default -seed 2 -workers 8 -slots 8
//	capsim -all -strategy evenly -workers 18 -slots 8
//	capsim -query Q1-sliding -live -transport batched   # replay on the live engine
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/telemetry"
)

// simFlags are the flags only capsim has; the shared ones are in
// cliflags.Common (Query may list several comma-separated names here).
type simFlags struct {
	all       bool
	scale     float64
	utilDump  bool
	live      bool
	snapEvery int64
}

// registerFlags declares every capsim flag on fs.
func registerFlags(fs *flag.FlagSet) (*cliflags.Common, *simFlags) {
	f := &cliflags.Common{
		Strategy: "caps", Records: 5000,
		Workers: 4, Slots: 4, Cores: 4, IOBps: 200e6, NetBps: 1.25e9,
		Transport: engine.TransportUnary, Fuse: "on", RescaleEpoch: 2,
	}
	f.Register(fs, map[string]string{
		"query":         "comma-separated built-in query names",
		"trace-out":     "append one controller.decision trace event per query as JSONL to this file",
		"records":       "live mode: records per source task",
		"transport":     "live mode: data-plane exchange (unary|batched)",
		"fuse":          "live mode: operator fusion — run co-located Forward chains as one goroutine (on|off)",
		"batch-size":    "live mode, batched transport: records per batch (0 = engine default)",
		"batch-linger":  "live mode, batched transport: max wait for a partial batch (0 = engine default, negative disables)",
		"rescale":       "live mode: comma-separated op=parallelism changes applied live at -rescale-epoch during the replay",
		"rescale-epoch": "live mode: checkpoint epoch at which -rescale fires",
	})
	o := &simFlags{}
	fs.BoolVar(&o.all, "all", false, "deploy all six benchmark queries")
	fs.Float64Var(&o.scale, "rate-scale", 1.0, "multiply all target rates by this factor")
	fs.BoolVar(&o.utilDump, "util", false, "print per-worker utilization")
	fs.BoolVar(&o.live, "live", false, "after simulating, replay each deployed query on the live engine and report measured throughput")
	fs.Int64Var(&o.snapEvery, "snapshot-every", 0, "live mode: checkpoint barrier interval in records per source (0 disables; required by -rescale)")
	return f, o
}

func main() {
	f, o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := run(f, o); err != nil {
		fmt.Fprintln(os.Stderr, "capsim:", err)
		os.Exit(1)
	}
}

func run(f *cliflags.Common, o *simFlags) error {
	// Live-mode flag syntax is checked up front, as a bad -fuse or -rescale
	// should not cost a simulation first.
	live, err := f.EngineOptions()
	if err != nil {
		return err
	}
	var specs []nexmark.QuerySpec
	if o.all {
		specs = nexmark.AllQueries()
	} else if f.Query != "" {
		for _, name := range strings.Split(f.Query, ",") {
			q, err := nexmark.ByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			specs = append(specs, q)
		}
	} else {
		return fmt.Errorf("one of -query or -all is required")
	}
	if o.scale != 1.0 {
		for i := range specs {
			specs[i] = specs[i].Scaled(o.scale)
		}
	}
	c, err := f.Cluster()
	if err != nil {
		return err
	}
	strat, err := placement.ByName(f.Strategy)
	if err != nil {
		return err
	}
	deps, res, err := controller.DeployAll(context.Background(), specs, c, strat, f.Seed, simulator.DefaultConfig())
	if err != nil {
		return err
	}
	if f.TraceOut != "" {
		if err := writeDecisionTrace(f.TraceOut, strat.Name(), res); err != nil {
			return err
		}
	}
	fmt.Printf("%-14s %12s %12s %8s %10s\n", "query", "target", "throughput", "bp(%)", "latency(ms)")
	for _, name := range res.SortedQueryNames() {
		q := res.Queries[name]
		fmt.Printf("%-14s %12.0f %12.0f %8.1f %10.1f\n",
			name, q.Target, q.Throughput, q.Backpressure*100, q.LatencySec*1000)
	}
	if o.utilDump {
		fmt.Printf("\n%-8s %8s %8s %8s\n", "worker", "cpu", "io", "net")
		for w, u := range res.WorkerUtilization {
			fmt.Printf("w%-7d %8.3f %8.3f %8.3f\n", w, u.CPU, u.IO, u.Net)
		}
	}
	if o.live {
		live.SnapshotInterval = o.snapEvery
		return runLive(context.Background(), deps, c, strat, f.Seed, live)
	}
	return nil
}

// runLive replays the simulated deployments on the live engine, one query at
// a time, under the configured exchange transport — the measured rec/s
// column is the ground truth the simulator's steady-state throughput
// approximates. Each query keeps its simulated plan; a -rescale is re-placed
// by the strategy.
func runLive(ctx context.Context, deps []controller.Deployment, c *cluster.Cluster, strat placement.Strategy, seed int64, opts engine.JobOptions) error {
	if opts.RecordsPerSource <= 0 {
		return fmt.Errorf("-live requires -records > 0")
	}
	if len(opts.Rescales) > 0 && opts.SnapshotInterval <= 0 {
		return fmt.Errorf("-rescale requires -snapshot-every > 0 (rescales are epoch-aligned)")
	}
	fmt.Printf("\nlive engine (%s transport, %d records/source):\n", opts.Transport, opts.RecordsPerSource)
	fmt.Printf("%-14s %12s %12s %12s %10s %10s\n", "query", "sourced", "elapsed", "rec/s", "sink", "batches")
	for _, dep := range deps {
		d, err := controller.Launch(ctx, dep.Spec, c, strat, controller.LaunchOptions{Seed: seed, Plan: dep.Plan})
		if err != nil {
			return err
		}
		out, err := d.Run(ctx, opts)
		if err != nil {
			return err
		}
		res := out.Result
		rate := 0.0
		if res.Elapsed > 0 {
			rate = float64(res.SourceRecords) / res.Elapsed.Seconds()
		}
		fmt.Printf("%-14s %12d %12s %12.0f %10d %10.0f\n",
			dep.Spec.Name, res.SourceRecords, res.Elapsed.Round(time.Millisecond),
			rate, res.SinkRecords, res.Metrics.Snapshot()["exchange.batches"])
		if line := cliflags.RescaleLine(res); line != "" {
			fmt.Printf("%-14s %s", "", line)
		}
	}
	return nil
}

// writeDecisionTrace appends one controller.decision event per deployed
// query — the profile -> placement -> simulated-outcome record — as JSONL.
func writeDecisionTrace(path, strategy string, res *simulator.Result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open -trace-out: %w", err)
	}
	defer f.Close()
	tracer := telemetry.NewTracer(len(res.Queries) + 1)
	tracer.SetSink(f)
	for _, name := range res.SortedQueryNames() {
		q := res.Queries[name]
		tracer.Emit(telemetry.Event{
			Kind:  telemetry.EventDecision,
			Query: name,
			Attrs: map[string]any{
				"strategy":     strategy,
				"target_rate":  q.Target,
				"throughput":   q.Throughput,
				"backpressure": q.Backpressure,
				"latency_ms":   q.LatencySec * 1000,
			},
		})
	}
	return tracer.SinkErr()
}
