package controller

import (
	"context"
	"fmt"
	"sort"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/ds2"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/telemetry"
)

// RescaleOptions configures a live-rescale run on the engine: the job starts
// under the strategy's placement, and at the scheduled checkpoint epochs the
// engine drains, repartitions the operators' key-groups, and the controller
// re-places the rescaled topology before the job resumes.
type RescaleOptions struct {
	// Seed drives the deterministic event generators and randomized
	// placement strategies.
	Seed int64
	// RecordsPerSource is the number of records each source task generates.
	RecordsPerSource int64
	// SnapshotInterval is the checkpoint barrier interval in records per
	// source task (must be > 0: rescales are epoch-aligned).
	SnapshotInterval int64
	// Rescales schedules the live parallelism changes (at least one).
	Rescales []engine.RescalePlan
	// SourceRate throttles sources to a records-per-second budget, keeping
	// the stream alive long enough for the scheduled epochs to matter.
	SourceRate map[dataflow.OperatorID]float64
	// ChannelCapacity is the engine's per-task inbox bound (0 = default).
	ChannelCapacity int
	// Transport selects the engine's data-plane exchange discipline; see
	// engine.JobOptions.
	Transport   string
	BatchSize   int
	BatchLinger time.Duration
	// DisableFusion turns off operator chaining.
	DisableFusion bool
	// CPUCostScale multiplies the profiled per-record CPU costs (0 = 1).
	CPUCostScale float64
	// Telemetry receives the engine's rescale.start/rescale.complete events
	// and the controller's placement decisions.
	Telemetry *telemetry.Telemetry
}

// RescaleOutcome reports one live-rescale run end to end: initial and
// re-placement decision times, how much of the plan the re-placement
// disturbed, and the engine's full result (downtime, moved state bytes,
// reprocessed records, ...).
type RescaleOutcome struct {
	Query    string
	Strategy string
	// Transport is the data-plane exchange discipline the job ran under.
	Transport string
	// PlacementTime is the initial placement decision time.
	PlacementTime time.Duration
	// ReplaceTime is the total re-placement decision time across rescales
	// (the controller-side share of the rescale downtime).
	ReplaceTime time.Duration
	// MovedTasks counts surviving tasks whose worker changed across all
	// rescale re-placements; freshly created tasks are not "moved".
	MovedTasks int
	// Result is the engine's full job result.
	Result *engine.JobResult
}

// RunRescale deploys a query on the live engine under the given strategy and
// applies the scheduled live rescales. The controller sits on the resume path
// the same way it sits on the recovery path: after the engine drains and
// repartitions state, the placement strategy re-places the rescaled physical
// graph (warm-started from the running plan when the strategy supports it),
// and its decision time is charged to the rescale downtime the engine
// measures. Placement contributions are exported on the result's metrics
// registry as "controller.placement_seconds", "controller.replacement_seconds"
// and "controller.tasks_moved", mirroring RunRecovery.
func RunRescale(ctx context.Context, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, opts RescaleOptions) (*RescaleOutcome, error) {
	if opts.RecordsPerSource <= 0 {
		return nil, fmt.Errorf("controller: RecordsPerSource must be > 0")
	}
	if opts.SnapshotInterval <= 0 {
		return nil, fmt.Errorf("controller: SnapshotInterval must be > 0 (rescales are epoch-aligned)")
	}
	if len(opts.Rescales) == 0 {
		return nil, fmt.Errorf("controller: no rescales scheduled")
	}
	st, err := startLiveStudy(ctx, spec, c, strat, opts.Seed, opts.CPUCostScale, opts.Telemetry)
	if err != nil {
		return nil, err
	}

	// over accumulates the applied parallelism overrides so each
	// re-placement prices the usage model on the topology actually running.
	over := make(map[dataflow.OperatorID]int)

	jobOpts := engine.JobOptions{
		ChannelCapacity:  opts.ChannelCapacity,
		Transport:        opts.Transport,
		BatchSize:        opts.BatchSize,
		BatchLinger:      opts.BatchLinger,
		DisableFusion:    opts.DisableFusion,
		RecordsPerSource: opts.RecordsPerSource,
		SourceRate:       opts.SourceRate,
		PerRecordCPU:     st.binding.PerRecordCPU,
		Stateful:         st.binding.Stateful,
		SnapshotInterval: opts.SnapshotInterval,
		Rescales:         opts.Rescales,
		Telemetry:        opts.Telemetry,
		OnRescale: func(ev engine.RescaleEvent, prev *dataflow.Plan, newPhys *dataflow.PhysicalGraph) (*dataflow.Plan, error) {
			t := time.Now()
			over[ev.Op] = ev.NewParallelism
			rg, err := spec.Graph.Rescale(over)
			if err != nil {
				return nil, fmt.Errorf("controller: rescale usage model: %w", err)
			}
			ru, err := usageFor(rg, spec.SourceRates)
			if err != nil {
				return nil, fmt.Errorf("controller: rescale usage model: %w", err)
			}
			next, err := rescalePlace(ctx, newPhys, c, strat, ru, opts.Seed+ev.Epoch, prev)
			if err != nil {
				return nil, err
			}
			moved := 0
			for _, task := range newPhys.Tasks() {
				if pw, ok := prev.Worker(task); ok && next.MustWorker(task) != pw {
					moved++
				}
			}
			st.replaced(time.Since(t), moved, telemetry.Event{Op: string(ev.Op), Epoch: ev.Epoch,
				Attrs: map[string]any{"from": ev.OldParallelism, "to": ev.NewParallelism}})
			return next, nil
		},
	}

	job, err := engine.NewJob(spec.Graph, st.plan, EngineCluster(c), st.binding.Factories, jobOpts)
	if err != nil {
		return nil, err
	}
	res, err := job.Run(ctx)
	if err != nil {
		return nil, err
	}
	st.export(res)
	return &RescaleOutcome{
		Query:         spec.Name,
		Strategy:      strat.Name(),
		Transport:     job.Transport(),
		PlacementTime: st.placementTime,
		ReplaceTime:   st.replaceTime,
		MovedTasks:    st.moved,
		Result:        res,
	}, nil
}

// rescalePlace re-places the rescaled physical graph on the full cluster,
// warm-starting from the surviving assignments of the running plan when the
// strategy supports it — a rescale should disturb the placement as little as
// the strategy allows, not reshuffle the whole job.
func rescalePlace(ctx context.Context, phys *dataflow.PhysicalGraph, c *cluster.Cluster, strat placement.Strategy, u *costmodel.Usage, seed int64, prev *dataflow.Plan) (*dataflow.Plan, error) {
	if free := c.TotalSlots(); free < phys.NumTasks() {
		return nil, fmt.Errorf("controller: cluster has %d slots for %d rescaled tasks", free, phys.NumTasks())
	}
	if wp, ok := strat.(placement.WarmPlacer); ok && prev != nil {
		vprev := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			if w, ok := prev.Worker(t); ok {
				vprev.Assign(t, w)
			}
		}
		next, err := wp.PlaceWarm(ctx, phys, c, u, seed, vprev)
		if err != nil {
			return nil, fmt.Errorf("controller: rescale re-placement: %w", err)
		}
		return next, nil
	}
	next, err := strat.Place(ctx, phys, c, u, seed)
	if err != nil {
		return nil, fmt.Errorf("controller: rescale re-placement: %w", err)
	}
	return next, nil
}

// PlansFromDecision turns a DS2 scaling decision into the engine's rescale
// schedule: one plan per operator whose recommended parallelism differs from
// the graph's current, all aligned to the same checkpoint epoch. Sources
// are skipped — their count fixes the input partitioning, so a live rescale
// cannot apply that part of the decision. Operators are ordered
// deterministically so the same decision always yields the same schedule.
func PlansFromDecision(d *ds2.Decision, g *dataflow.LogicalGraph, atEpoch int64) []engine.RescalePlan {
	if d == nil || !d.Changed {
		return nil
	}
	ops := make([]dataflow.OperatorID, 0, len(d.Parallelism))
	for op := range d.Parallelism {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var plans []engine.RescalePlan
	for _, op := range ops {
		cur := g.Operator(op)
		if cur == nil || len(g.Upstream(op)) == 0 {
			continue
		}
		if p := d.Parallelism[op]; p > 0 && p != cur.Parallelism {
			plans = append(plans, engine.RescalePlan{Op: op, Parallelism: p, AtEpoch: atEpoch})
		}
	}
	return plans
}
