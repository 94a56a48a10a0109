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
//
// caplive runs a query's plan on the live engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/controller"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/telemetry"
)

// simFlags are the flags only capsim has; the shared ones are in
// cliflags.Common (Query may list several comma-separated names here).
type simFlags struct {
	all      bool
	scale    float64
	utilDump bool
	traceOut string
}

// registerFlags declares every capsim flag on fs.
func registerFlags(fs *flag.FlagSet) (*cliflags.Common, *simFlags) {
	f := &cliflags.Common{
		Strategy: "caps",
		Workers:  4, Slots: 4, Cores: 4, IOBps: 200e6, NetBps: 1.25e9,
	}
	f.Register(fs, map[string]string{"query": "comma-separated built-in query names"})
	o := &simFlags{}
	fs.BoolVar(&o.all, "all", false, "deploy all six benchmark queries")
	fs.Float64Var(&o.scale, "rate-scale", 1.0, "multiply all target rates by this factor")
	fs.BoolVar(&o.utilDump, "util", false, "print per-worker utilization")
	fs.StringVar(&o.traceOut, "trace-out", "", "append one controller.decision trace event per query as JSONL to this file")
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
	_, res, err := controller.DeployAll(context.Background(), specs, c, strat, f.Seed, simulator.DefaultConfig())
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := writeDecisionTrace(o.traceOut, strat.Name(), res); err != nil {
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
