// Command capsysctl computes a task placement plan for a streaming query on
// a worker cluster, using any of the implemented strategies (CAPS, Flink
// default, Flink evenly, random, greedy).
//
// Queries come either from the built-in Nexmark benchmark suite (-query) or
// from a JSON file (-query-file); clusters from flags or a JSON file. The
// plan is printed as JSON together with its cost vector and the simulated
// steady-state performance.
//
// With -recovery the tool instead runs the fault-injection study on the live
// mini engine: every strategy (CAPS, Flink default, Flink evenly, ODRP)
// deploys the query, a worker is killed at a checkpoint epoch, and the
// controller reconciles — re-placing on the survivors and restarting from
// the last complete snapshot. The report compares time-to-recover and
// post-recovery backpressure across strategies.
//
// Examples:
//
//	capsysctl -query Q1-sliding -strategy caps
//	capsysctl -query Q3-inf -strategy default -seed 3 -workers 8 -slots 4
//	capsysctl -query-file myquery.json -cluster-file mycluster.json
//	capsysctl -query Q1-sliding -recovery -records 2000 -kill-epoch 3
//	capsysctl -query Q1-sliding -recovery -transport batched -batch-size 64
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"capsys/cmd/internal/cliflags"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/experiments"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/simulator"
	"capsys/internal/specio"
	"capsys/internal/telemetry"
)

type output struct {
	Query     string             `json:"query"`
	Strategy  string             `json:"strategy"`
	Plan      specio.PlanJSON    `json:"plan"`
	Cost      map[string]float64 `json:"cost"`
	Decision  string             `json:"decision_time"`
	Simulated struct {
		Throughput   float64 `json:"throughput_rec_s"`
		Target       float64 `json:"target_rec_s"`
		Backpressure float64 `json:"backpressure"`
		LatencyMS    float64 `json:"latency_ms"`
	} `json:"simulated"`
}

// ctlFlags are the flags only capsysctl has; the shared ones are in
// cliflags.Common.
type ctlFlags struct {
	queryFile   string
	clusterFile string
	noSim       bool
	chain       bool
	snapEvery   int64
	killWorker  int
	killEpoch   int64
	sourceRate  float64
	metricsAddr string
	list        bool
	recovery    bool
}

// registerFlags declares every capsysctl flag on fs.
func registerFlags(fs *flag.FlagSet) (*cliflags.Common, *ctlFlags) {
	f := &cliflags.Common{
		Strategy: "caps", Records: 2000,
		Workers: 4, Slots: 4, Cores: 4, IOBps: 200e6, NetBps: 1.25e9,
		Transport: engine.TransportUnary, Fuse: "on", RescaleEpoch: 3,
	}
	f.Register(fs, map[string]string{
		"query":         "built-in query name (Q1-sliding .. Q6-session)",
		"workers":       "number of workers (ignored with -cluster-file)",
		"records":       "recovery/rescale: records per source task",
		"rescale":       "run a live rescale on the engine: comma-separated op=parallelism changes under -strategy (e.g. slide-win=12)",
		"rescale-epoch": "rescale: checkpoint epoch at which -rescale fires",
		"trace-out":     "recovery: append structured trace events as JSONL to this file",
		"transport":     "recovery: data-plane exchange (unary|batched|network)",
		"fuse":          "recovery: operator fusion — run co-located Forward chains as one goroutine (on|off)",
		"batch-size":    "recovery, batched transport: records per batch (0 = engine default)",
		"batch-linger":  "recovery, batched transport: max wait for a partial batch (0 = engine default, negative disables)",
	})
	o := &ctlFlags{}
	fs.StringVar(&o.queryFile, "query-file", "", "JSON query spec file ('-' = stdin)")
	fs.StringVar(&o.clusterFile, "cluster-file", "", "JSON cluster spec file")
	fs.BoolVar(&o.list, "list", false, "list built-in queries and exit")
	fs.BoolVar(&o.noSim, "no-sim", false, "skip the simulated evaluation")
	fs.BoolVar(&o.chain, "chain", false, "apply operator chaining before placement; the plan is expanded back to the original graph")
	fs.BoolVar(&o.recovery, "recovery", false, "run the fault-injection recovery study on the live engine (all strategies)")
	fs.Int64Var(&o.snapEvery, "snapshot-every", 250, "recovery/rescale: checkpoint barrier interval (records per source)")
	fs.IntVar(&o.killWorker, "kill-worker", -1, "recovery: worker to kill (-1 = busiest under each plan)")
	fs.Int64Var(&o.killEpoch, "kill-epoch", 3, "recovery: checkpoint epoch at which the worker dies")
	fs.Float64Var(&o.sourceRate, "source-rate", 0, "rescale: throttle each source task to this records/s (0 = unthrottled)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "recovery: serve live telemetry over HTTP (/metrics, /events) on this address")
	return f, o
}

func main() {
	f, o := registerFlags(flag.CommandLine)
	flag.Parse()
	_, err := f.DisableFusion()
	switch {
	case err != nil:
	case o.list:
		for _, q := range nexmark.AllQueries() {
			fmt.Printf("%-14s %2d tasks  target %8.0f rec/s\n", q.Name, q.Graph.TotalTasks(), q.TotalRate())
		}
	case o.recovery:
		err = runRecovery(os.Stdout, f, o)
	case f.Rescale != "":
		err = runRescale(os.Stdout, f, o)
	default:
		err = run(f, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capsysctl:", err)
		os.Exit(1)
	}
}

// runRecovery executes the fault-injection study for every strategy and
// prints the comparison report.
func runRecovery(w *os.File, f *cliflags.Common, o *ctlFlags) error {
	if f.Query == "" {
		return fmt.Errorf("-recovery requires -query (see -list)")
	}
	spec, err := nexmark.ByName(f.Query)
	if err != nil {
		return err
	}
	eo, err := f.EngineOptions()
	if err != nil {
		return err
	}
	// The survivors must be able to host the whole graph after a death;
	// raise the slot count if the flags leave no headroom.
	if f.Workers < 2 {
		return fmt.Errorf("-recovery needs at least 2 workers")
	}
	if need := spec.Graph.TotalTasks()/(f.Workers-1) + 1; f.Slots < need {
		f.Slots = need
	}
	c, err := f.Cluster()
	if err != nil {
		return err
	}
	// One hub shared across strategies: the scrape endpoint and the trace
	// file cover the whole study, with each event attributed by query /
	// strategy attrs.
	tel := telemetry.New()
	stop, err := cliflags.Observe(tel, f.TraceOut, o.metricsAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer stop()
	eo.SnapshotInterval, eo.Telemetry = o.snapEvery, tel
	eo.Rescales = nil // -recovery is the kill study; -rescale runs on its own
	var outcomes []*controller.RecoveryOutcome
	for _, strat := range experiments.RecoveryStrategies(spec, 200_000) {
		d, err := controller.Launch(context.Background(), spec, c, strat, controller.LaunchOptions{Seed: f.Seed})
		if err != nil {
			return fmt.Errorf("recovery under %s: %w", strat.Name(), err)
		}
		out, err := d.RunRecovery(context.Background(), engine.WorkerKill{Worker: o.killWorker, AtEpoch: o.killEpoch}, eo)
		if err != nil {
			return fmt.Errorf("recovery under %s: %w", strat.Name(), err)
		}
		outcomes = append(outcomes, out)
	}
	if err := tel.Tracer().SinkErr(); err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}
	_, err = fmt.Fprint(w, renderRecoveryReport(outcomes))
	return err
}

// renderRecoveryReport formats recovery outcomes as an aligned text table.
// It is a pure function of its input (no clocks, no maps iterated in
// nondeterministic order), so fixed outcomes render to fixed bytes — the
// golden test pins this format.
func renderRecoveryReport(outcomes []*controller.RecoveryOutcome) string {
	var b strings.Builder
	if len(outcomes) == 0 {
		return "recovery report: no outcomes\n"
	}
	fmt.Fprintf(&b, "recovery report: query %s, kill at checkpoint\n", outcomes[0].Query)
	header := []string{"strategy", "transport", "killed", "tasks_on_killed", "place_ms", "replace_ms",
		"recovered", "downtime_ms", "reprocessed", "lost", "sink_records", "moved", "peak_bp"}
	rows := [][]string{header}
	for _, o := range outcomes {
		recovered := "no"
		if o.Recovered {
			recovered = "yes"
		}
		rows = append(rows, []string{
			o.Strategy,
			o.Transport,
			fmt.Sprintf("w%d", o.KilledWorker),
			fmt.Sprintf("%d", o.TasksOnKilled),
			fmt.Sprintf("%.1f", float64(o.PlacementTime.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(o.ReplaceTime.Microseconds())/1000),
			recovered,
			fmt.Sprintf("%.1f", float64(o.Result.Downtime.Microseconds())/1000),
			fmt.Sprintf("%d", o.Result.RecordsReprocessed),
			fmt.Sprintf("%d", o.Result.LostRecords),
			fmt.Sprintf("%d", o.Result.SinkRecords),
			fmt.Sprintf("%d", o.MovedTasks),
			fmt.Sprintf("%.3f", o.Backpressure),
		})
	}
	b.WriteString(alignTable(rows))
	return b.String()
}

// alignTable renders rows as left-aligned columns two spaces apart, each as
// wide as its widest cell, with no padding after the last.
func alignTable(rows [][]string) string {
	var b strings.Builder
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(row)-1 {
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runRescale executes one live rescale under the chosen strategy: deploy,
// drain to the scheduled checkpoint epoch, repartition the operators'
// key-groups, re-place, resume — and print what it cost.
func runRescale(w *os.File, f *cliflags.Common, o *ctlFlags) error {
	if f.Query == "" {
		return fmt.Errorf("-rescale requires -query (see -list)")
	}
	spec, err := nexmark.ByName(f.Query)
	if err != nil {
		return err
	}
	eo, err := f.EngineOptions()
	if err != nil {
		return err
	}
	strat, err := placement.ByName(f.Strategy)
	if err != nil {
		return err
	}
	// The cluster must be able to host the scaled-up graph; raise the slot
	// count if the flags leave no headroom.
	maxTasks := spec.Graph.TotalTasks()
	for _, p := range eo.Rescales {
		op := spec.Graph.Operator(p.Op)
		if op == nil {
			return fmt.Errorf("-rescale: query %s has no operator %q", f.Query, p.Op)
		}
		if grow := p.Parallelism - op.Parallelism; grow > 0 {
			maxTasks += grow
		}
	}
	if need := maxTasks/f.Workers + 1; f.Slots < need {
		f.Slots = need
	}
	c, err := f.Cluster()
	if err != nil {
		return err
	}
	tel := telemetry.New()
	stop, err := cliflags.Observe(tel, f.TraceOut, o.metricsAddr, os.Stderr)
	if err != nil {
		return err
	}
	defer stop()
	eo.SnapshotInterval, eo.Telemetry = o.snapEvery, tel
	if o.sourceRate > 0 {
		eo.SourceRate = map[dataflow.OperatorID]float64{}
		for _, src := range spec.Graph.Sources() {
			eo.SourceRate[src.ID] = o.sourceRate
		}
	}
	d, err := controller.Launch(context.Background(), spec, c, strat, controller.LaunchOptions{Seed: f.Seed})
	if err != nil {
		return err
	}
	out, err := d.Run(context.Background(), eo)
	if err != nil {
		return err
	}
	if err := tel.Tracer().SinkErr(); err != nil {
		return fmt.Errorf("trace sink: %w", err)
	}
	_, err = fmt.Fprint(w, renderRescaleReport(out, eo.Rescales))
	return err
}

// renderRescaleReport formats one rescale outcome as aligned text. Like
// renderRecoveryReport it is a pure function of its input, so fixed outcomes
// render to fixed bytes.
func renderRescaleReport(o *controller.Outcome, plans []engine.RescalePlan) string {
	var b strings.Builder
	if o == nil {
		return "rescale report: no outcome\n"
	}
	var changes []string
	for _, p := range plans {
		changes = append(changes, fmt.Sprintf("%s=%d@%d", p.Op, p.Parallelism, p.AtEpoch))
	}
	fmt.Fprintf(&b, "rescale report: query %s, %s\n", o.Query, strings.Join(changes, " "))
	header := []string{"strategy", "transport", "rescales", "place_ms", "replace_ms",
		"downtime_ms", "reprocessed", "lost", "sink_records", "moved_tasks", "moved_bytes"}
	rows := [][]string{header, {
		o.Strategy,
		o.Transport,
		fmt.Sprintf("%d", o.Result.Rescales),
		fmt.Sprintf("%.1f", float64(o.PlacementTime.Microseconds())/1000),
		fmt.Sprintf("%.1f", float64(o.ReplaceTime.Microseconds())/1000),
		fmt.Sprintf("%.1f", float64(o.Result.RescaleDowntime.Microseconds())/1000),
		fmt.Sprintf("%d", o.Result.RecordsReprocessed),
		fmt.Sprintf("%d", o.Result.LostRecords),
		fmt.Sprintf("%d", o.Result.SinkRecords),
		fmt.Sprintf("%d", o.MovedTasks),
		fmt.Sprintf("%d", o.Result.RescaleMovedBytes),
	}}
	b.WriteString(alignTable(rows))
	return b.String()
}

func run(f *cliflags.Common, o *ctlFlags) error {
	var spec nexmark.QuerySpec
	var err error
	switch {
	case o.queryFile != "":
		spec, err = specio.LoadQuery(o.queryFile)
	case f.Query != "":
		spec, err = nexmark.ByName(f.Query)
	default:
		return fmt.Errorf("one of -query or -query-file is required (see -list)")
	}
	if err != nil {
		return err
	}

	var c *cluster.Cluster
	if o.clusterFile != "" {
		c, err = specio.LoadCluster(o.clusterFile)
	} else {
		c, err = f.Cluster()
	}
	if err != nil {
		return err
	}

	strat, err := placement.ByName(f.Strategy)
	if err != nil {
		return err
	}

	// With -chain, placement runs on the chained graph (fewer layers) and
	// the resulting plan is expanded back onto the original operators.
	placementSpec := spec
	var chained *dataflow.ChainResult
	if o.chain {
		chained, err = dataflow.Chain(spec.Graph)
		if err != nil {
			return err
		}
		rates := make(map[dataflow.OperatorID]float64, len(spec.SourceRates))
		for _, src := range chained.Graph.Sources() {
			for _, member := range chained.Members[src.ID] {
				if r, ok := spec.SourceRates[member]; ok {
					rates[src.ID] = r
				}
			}
		}
		placementSpec = nexmark.QuerySpec{Name: spec.Name, Graph: chained.Graph, SourceRates: rates}
	}

	placePhys, err := dataflow.Expand(placementSpec.Graph)
	if err != nil {
		return err
	}
	placeUsage, err := controller.UsageOf(placementSpec.Graph, placementSpec.SourceRates)
	if err != nil {
		return err
	}

	start := time.Now()
	plan, err := strat.Place(context.Background(), placePhys, c, placeUsage, f.Seed)
	if err != nil {
		return err
	}
	decision := time.Since(start)
	if chained != nil {
		plan, err = dataflow.ExpandChainedPlan(chained, plan)
		if err != nil {
			return err
		}
	}

	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		return err
	}
	u, err := controller.UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		return err
	}

	slotsPerWorker, err := c.SlotsPerWorker()
	if err != nil {
		return err
	}
	bounds := costmodel.ComputeBounds(phys, u, c.NumWorkers(), slotsPerWorker)
	cost := costmodel.PlanCost(phys, plan, u, bounds, c.NumWorkers())

	var out output
	out.Query = spec.Name
	out.Strategy = strat.Name()
	out.Plan = specio.RenderPlan(plan, phys, c.NumWorkers())
	out.Cost = map[string]float64{"cpu": cost.CPU, "io": cost.IO, "net": cost.Net}
	out.Decision = decision.String()

	if !o.noSim {
		res, err := simulator.Evaluate([]simulator.QueryDeployment{{
			Name: spec.Name, Phys: phys, Plan: plan, SourceRates: spec.SourceRates,
		}}, c, simulator.DefaultConfig())
		if err != nil {
			return err
		}
		qm := res.Queries[spec.Name]
		out.Simulated.Throughput = qm.Throughput
		out.Simulated.Target = qm.Target
		out.Simulated.Backpressure = qm.Backpressure
		out.Simulated.LatencyMS = qm.LatencySec * 1000
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
