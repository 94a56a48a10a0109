package experiments

import (
	"context"
	"fmt"

	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/telemetry"
)

// rescaleConfig parameterizes the live-rescaling study.
type rescaleConfig struct {
	Workers          int
	Records          int64 // per source task
	SnapshotInterval int64
	AtEpoch          int64
	SourceRate       float64 // per source task, records/s
	Seed             int64
}

func defaultRescaleConfig() rescaleConfig {
	return rescaleConfig{
		Workers:          4,
		Records:          2000,
		SnapshotInterval: 250,
		AtEpoch:          3,
		SourceRate:       20000,
		Seed:             11,
	}
}

// Rescale is the elasticity study: a chainable Q1-sliding variant runs on
// the live engine under a sustained source rate, and at a checkpoint epoch
// the window operator's parallelism is changed in place — drain to a
// barrier-aligned epoch, repartition the operator's key-groups, re-place,
// resume. The recovery-SLO questions are the rows: what does a live rescale
// cost in downtime and reprocessing (never a full replay), does delivery
// stay exactly-once, and is the answer the same fused and unfused and under
// every exchange transport. A no-rescale baseline per fusion/transport pair
// anchors the p99 latency dip the drain causes.
func Rescale(ctx context.Context) (*Report, error) {
	return rescaleStudy(ctx, defaultRescaleConfig())
}

// fusibleQ1 is Q1-sliding with the source and map 1:1 forward-connected at
// equal parallelism, so operator fusion has a chain to collapse and the
// fused/unfused dimension is real. The operator IDs, costs and rates match
// the stock query, so the standard engine binding applies.
func fusibleQ1() (nexmark.QuerySpec, error) {
	stock, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		return nexmark.QuerySpec{}, err
	}
	g := dataflow.NewLogicalGraph()
	for _, op := range stock.Graph.Operators() {
		o := *op
		if o.ID == "map" {
			o.Parallelism = stock.Graph.Operator("src").Parallelism
		}
		if err := g.AddOperator(o); err != nil {
			return nexmark.QuerySpec{}, err
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "src", To: "map", Mode: dataflow.Forward},
		{From: "map", To: "slide-win"},
		{From: "slide-win", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			return nexmark.QuerySpec{}, err
		}
	}
	return nexmark.QuerySpec{Name: stock.Name, Graph: g, SourceRates: stock.SourceRates}, nil
}

// chainEven places forward-pair tasks (src[i], map[i]) on the same worker —
// guaranteeing the fused rows actually fuse — and fills everything else onto
// the emptiest worker. Deterministic, slot-respecting, parallelism-agnostic
// (the rescaled graph re-places through the same rule).
type chainEven struct{}

func (chainEven) Name() string { return "chain-even" }

func (chainEven) Place(_ context.Context, p *dataflow.PhysicalGraph, c *cluster.Cluster, _ *costmodel.Usage, _ int64) (*dataflow.Plan, error) {
	slots, err := c.SlotsPerWorker()
	if err != nil {
		return nil, err
	}
	used := make([]int, c.NumWorkers())
	plan := dataflow.NewPlan()
	place := func(t dataflow.TaskID, w int) error {
		if used[w] >= slots {
			return fmt.Errorf("experiments: chain-even out of slots on worker %d", w)
		}
		plan.Assign(t, w)
		used[w]++
		return nil
	}
	for _, t := range p.Tasks() {
		w := -1
		switch t.Op {
		case "src", "map":
			w = t.Index % c.NumWorkers()
		default:
			for i := range used {
				if used[i] < slots && (w == -1 || used[i] < used[w]) {
					w = i
				}
			}
			if w == -1 {
				return nil, fmt.Errorf("experiments: chain-even out of slots")
			}
		}
		if err := place(t, w); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

func rescaleStudy(ctx context.Context, cfg rescaleConfig) (*Report, error) {
	spec, err := fusibleQ1()
	if err != nil {
		return nil, err
	}
	winFrom := spec.Graph.Operator("slide-win").Parallelism
	directions := []int{winFrom + 4, winFrom / 2}
	// Slots sized for the scaled-up graph with headroom.
	maxTasks := spec.Graph.TotalTasks() - winFrom + directions[0]
	c, err := cluster.Homogeneous(cfg.Workers, maxTasks/cfg.Workers+2, 8, 500e6, 2e9)
	if err != nil {
		return nil, err
	}
	srcTasks := int64(spec.Graph.Operator("src").Parallelism)
	// One placement for every row: chain-even is deterministic, and the
	// re-placements go through it again on the rescaled graph.
	d, err := controller.Launch(ctx, spec, c, chainEven{}, controller.LaunchOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID: "RESCALE",
		Title: fmt.Sprintf("live rescaling on %s: drain to epoch %d, repartition key-groups, resume (window %d→{%d,%d})",
			spec.Name, cfg.AtEpoch, winFrom, directions[0], directions[1]),
		Header: []string{"fusion", "transport", "win_to", "downtime_ms", "replace_ms", "reprocessed",
			"lost", "moved_kb", "moved_tasks", "fused_chains", "p99_ms", "base_p99_ms", "sink_records"},
	}

	// Exactly-once delivery and fusion transparency together mean every
	// run — any transport, fused or not, either rescale direction — must
	// deliver the same sink records.
	baseSink := int64(-1)
	for _, fused := range []bool{true, false} {
		label := "fused"
		if !fused {
			label = "unfused"
		}
		for _, transport := range engine.TransportNames() {
			opts := engine.JobOptions{
				RecordsPerSource: cfg.Records,
				SnapshotInterval: cfg.SnapshotInterval,
				SourceRate:       map[dataflow.OperatorID]float64{"src": cfg.SourceRate},
				Transport:        transport,
				DisableFusion:    !fused,
			}
			// No-rescale baseline anchors the p99 the drain disturbs.
			baseTel := telemetry.New()
			opts.Telemetry = baseTel
			base, err := d.Run(ctx, opts)
			if err != nil {
				return nil, fmt.Errorf("experiments: rescale baseline %s/%s: %w", label, transport, err)
			}
			baseP99 := mergedLatencyQuantile(baseTel, 0.99) * 1e3
			if fused && base.Result.Metrics.Snapshot()["engine.fuse.chains"] <= 0 {
				return nil, fmt.Errorf("experiments: rescale %s/%s: chain-even placement fused no chains", label, transport)
			}
			for _, to := range directions {
				tel := telemetry.New()
				opts.Telemetry = tel
				opts.Rescales = []engine.RescalePlan{{Op: "slide-win", Parallelism: to, AtEpoch: cfg.AtEpoch}}
				out, err := d.Run(ctx, opts)
				if err != nil {
					return nil, fmt.Errorf("experiments: rescale %s/%s→%d: %w", label, transport, to, err)
				}
				res := out.Result
				if res.Rescales != 1 || res.Failed {
					return nil, fmt.Errorf("experiments: rescale %s/%s→%d: rescales=%d failed=%v",
						label, transport, to, res.Rescales, res.Failed)
				}
				if res.LostRecords != 0 {
					return nil, fmt.Errorf("experiments: rescale %s/%s→%d lost %d records",
						label, transport, to, res.LostRecords)
				}
				// Reprocessing must be resume-from-checkpoint, never a
				// replay of the whole stream.
				if res.RecordsReprocessed >= srcTasks*cfg.Records {
					return nil, fmt.Errorf("experiments: rescale %s/%s→%d reprocessed %d/%d records — full replay",
						label, transport, to, res.RecordsReprocessed, srcTasks*cfg.Records)
				}
				if baseSink < 0 {
					baseSink = res.SinkRecords
				} else if res.SinkRecords != baseSink {
					return nil, fmt.Errorf("experiments: rescale %s/%s→%d: sink records diverge: %d, expected %d",
						label, transport, to, res.SinkRecords, baseSink)
				}
				rep.AddRow(label, out.Transport, to,
					float64(res.RescaleDowntime.Microseconds())/1000,
					float64(out.ReplaceTime.Microseconds())/1000,
					res.RecordsReprocessed,
					res.LostRecords,
					float64(res.RescaleMovedBytes)/1024,
					out.MovedTasks,
					res.Metrics.Snapshot()["engine.fuse.chains"],
					mergedLatencyQuantile(tel, 0.99)*1e3,
					baseP99,
					res.SinkRecords,
				)
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"every rescale delivers exactly the baseline's sink records: draining to a barrier-aligned epoch and repartitioning key-groups loses nothing and is invisible to delivery",
		fmt.Sprintf("reprocessing stays bounded by the records emitted past the drain epoch (budget: %d/source/epoch), never a replay of the stream", cfg.SnapshotInterval),
		"re-placement decision time (replace_ms) sits inside the measured downtime: the scheduler is on the rescale's critical path, as it is on recovery's",
		"the p99 dip against base_p99_ms is the latency cost of the drain; fused and unfused rows pay it alike under all three transports")
	return rep, nil
}
