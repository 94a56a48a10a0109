package experiments

import (
	"context"
	"fmt"
	"sort"

	"capsys/internal/caps"
	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/odrp"
	"capsys/internal/placement"
	"capsys/internal/telemetry"
)

// recoveryConfig parameterizes the fault-injection study.
type recoveryConfig struct {
	Query            string
	Workers          int
	Records          int64 // per source task
	SnapshotInterval int64
	KillAtEpoch      int64
	Seed             int64
	SearchNodes      int64 // node budget for CAPS and ODRP
}

func defaultRecoveryConfig() recoveryConfig {
	return recoveryConfig{
		Query:            "Q1-sliding",
		Workers:          4,
		Records:          2000,
		SnapshotInterval: 250,
		KillAtEpoch:      3,
		Seed:             11,
		SearchNodes:      200_000,
	}
}

// Recovery is the fault-tolerance study: each strategy deploys the query on
// the live engine, the busiest worker is killed at a checkpoint epoch, and
// the controller reconciles — re-running the same strategy over the
// survivors and restarting from the last complete snapshot. The placement
// strategy is on recovery's critical path twice: its decision time adds to
// the outage, and its survivor placement decides the post-recovery
// backpressure on the shrunken cluster (the paper's §7 failure-handling
// discussion; decision-time asymmetry echoes §6.3's CAPS-vs-ODRP result).
func Recovery(ctx context.Context) (*Report, error) {
	return recoveryStudy(ctx, defaultRecoveryConfig())
}

// recoveryStrategies returns the study's strategy lineup: CAPS, the two
// Flink baselines and ODRP (adapted onto the fixed graph).
func recoveryStrategies(spec nexmark.QuerySpec, nodes int64) []placement.Strategy {
	return []placement.Strategy{
		placement.CAPS{Search: caps.Options{MaxNodes: nodes}},
		placement.FlinkDefault{},
		placement.FlinkEvenly{},
		odrpStrategy{spec: spec, opts: odrp.Options{Weights: odrp.WeightedWeights(), MaxNodes: nodes}},
	}
}

func recoveryStudy(ctx context.Context, cfg recoveryConfig) (*Report, error) {
	spec, err := nexmark.ByName(cfg.Query)
	if err != nil {
		return nil, err
	}
	if cfg.Workers < 2 {
		return nil, fmt.Errorf("experiments: recovery needs >= 2 workers")
	}
	// Size slots so the survivors can still host the whole graph after one
	// worker dies.
	tasks := spec.Graph.TotalTasks()
	slots := tasks/(cfg.Workers-1) + 1
	c, err := cluster.Homogeneous(cfg.Workers, slots, 8, 500e6, 2e9)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "RECOVERY",
		Title: fmt.Sprintf("fault injection on %s: kill busiest worker at epoch %d, recover from checkpoint", cfg.Query, cfg.KillAtEpoch),
		Header: []string{"strategy", "transport", "place_ms", "replace_ms", "recovered",
			"downtime_ms", "reprocessed", "lost", "sink_records", "moved_tasks", "peak_bp", "p99_ms", "events"},
	}
	var outcomes []*controller.RecoveryOutcome
	for _, strat := range recoveryStrategies(spec, cfg.SearchNodes) {
		// Per-strategy recovered-record accounting across transports: the
		// exchange discipline must be invisible to exactly-once delivery.
		// Which epoch the restore starts from (and hence the reprocessed
		// count) legitimately depends on scheduling, but the delivered sink
		// records may not: a divergence would be an exactly-once violation
		// in one of the transports.
		baseSink := int64(-1)
		d, err := controller.Launch(ctx, spec, c, strat, controller.LaunchOptions{Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: recovery under %s: %w", strat.Name(), err)
		}
		for _, transport := range engine.TransportNames() {
			// One hub per run keeps latency histograms and trace events
			// attributable to a single strategy/transport pair.
			tel := telemetry.New()
			out, err := d.RunRecovery(ctx, engine.WorkerKill{Worker: -1, AtEpoch: cfg.KillAtEpoch}, engine.JobOptions{
				RecordsPerSource: cfg.Records,
				SnapshotInterval: cfg.SnapshotInterval,
				Transport:        transport,
				Telemetry:        tel,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: recovery under %s/%s: %w", strat.Name(), transport, err)
			}
			outcomes = append(outcomes, out)
			if baseSink < 0 {
				baseSink = out.Result.SinkRecords
			} else if out.Result.SinkRecords != baseSink {
				return nil, fmt.Errorf("experiments: recovery under %s: sink records diverge across transports: %s delivered %d, expected %d",
					strat.Name(), transport, out.Result.SinkRecords, baseSink)
			}
			rep.AddRow(out.Strategy,
				out.Transport,
				float64(out.PlacementTime.Microseconds())/1000,
				float64(out.ReplaceTime.Microseconds())/1000,
				out.Recovered,
				float64(out.Result.Downtime.Microseconds())/1000,
				out.Result.RecordsReprocessed,
				out.Result.LostRecords,
				out.Result.SinkRecords,
				out.MovedTasks,
				out.Backpressure,
				mergedLatencyQuantile(tel, 0.99)*1e3,
				tel.Tracer().Len(),
			)
		}
	}
	for _, out := range outcomes {
		if out.Result.LostRecords != 0 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s/%s lost %d records after recovery (checkpoint restore incomplete)",
				out.Strategy, out.Transport, out.Result.LostRecords))
		}
	}
	rep.Notes = append(rep.Notes,
		"re-placement decision time is part of the outage: the scheduler sits on recovery's critical path",
		"every recovered run reprocesses only the records after its last complete checkpoint and loses none",
		"recovered-record accounting (sink records, zero lost) is identical under the unary, batched and network transports for every strategy")
	return rep, nil
}

// odrpStrategy adapts the ODRP solver to the placement.Strategy interface.
// ODRP jointly re-decides parallelism, so its plan covers a *rescaled* graph;
// for a like-for-like comparison on the fixed physical graph, each
// operator's tasks inherit ODRP's worker multiset for that operator
// round-robin (sorted for determinism), and slot overflows introduced by the
// projection spill to the emptiest worker.
type odrpStrategy struct {
	spec nexmark.QuerySpec
	opts odrp.Options
}

func (s odrpStrategy) Name() string { return "odrp" }

func (s odrpStrategy) Place(ctx context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, _ *costmodel.Usage, _ int64) (*dataflow.Plan, error) {
	res, err := odrp.Solve(ctx, s.spec, c, s.opts)
	if err != nil {
		return nil, err
	}
	slots, err := c.SlotsPerWorker()
	if err != nil {
		return nil, err
	}
	// Desired worker per task: operator's ODRP replica workers, sorted,
	// assigned round-robin over the fixed parallelism.
	desired := make(map[dataflow.TaskID]int, p.NumTasks())
	for _, op := range s.spec.Graph.Operators() {
		var ws []int
		for i := 0; i < res.Parallelism[op.ID]; i++ {
			if w, ok := res.Plan.Worker(dataflow.TaskID{Op: op.ID, Index: i}); ok {
				ws = append(ws, w)
			}
		}
		if len(ws) == 0 {
			return nil, fmt.Errorf("experiments: odrp plan missing operator %s", op.ID)
		}
		sort.Ints(ws)
		for _, t := range p.TasksOf(op.ID) {
			desired[t] = ws[t.Index%len(ws)]
		}
	}
	// Enforce slot capacities: tasks in graph order keep their desired
	// worker when it has room, otherwise spill to the emptiest worker
	// (ties to the lowest index) so the projection stays deterministic.
	used := make([]int, c.NumWorkers())
	plan := dataflow.NewPlan()
	for _, t := range p.Tasks() {
		w, ok := desired[t]
		if !ok {
			return nil, fmt.Errorf("experiments: odrp projection missing task %v", t)
		}
		if used[w] >= slots {
			w = -1
			for i := range used {
				if used[i] < slots && (w == -1 || used[i] < used[w]) {
					w = i
				}
			}
			if w == -1 {
				return nil, fmt.Errorf("experiments: odrp projection out of slots")
			}
		}
		plan.Assign(t, w)
		used[w]++
	}
	return plan, nil
}
