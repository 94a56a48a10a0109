package controller

import (
	"context"
	"fmt"

	"capsys/internal/cluster"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/placement"
)

// RecoveryOutcome reports one fault-injection run end to end: the run's
// Outcome (decision times, tasks moved, the engine's result with downtime,
// reprocessed and lost records) plus what the failure hit and how the job
// fared after it.
type RecoveryOutcome struct {
	Outcome
	// KilledWorker is the worker index that died.
	KilledWorker int
	// TasksOnKilled is the number of tasks the initial plan had placed on
	// the killed worker.
	TasksOnKilled int
	// Recovered reports whether the job restarted from a checkpoint (false
	// when NoRecovery, when no snapshot completed in time, or when the
	// fault never fired).
	Recovered bool
	// Backpressure is the peak per-task backpressure fraction of the run
	// (backpressure time / elapsed), a proxy for post-recovery health.
	Backpressure float64
}

// RunRecovery runs the deployment with one worker killed at a checkpoint
// epoch (opts.SnapshotInterval must be > 0: kills are epoch-aligned). A
// negative kill.Worker selects the worker hosting the most tasks under the
// initial plan (ties to the lowest index), so the fault hits comparable load
// under every strategy. Unless the deployment was launched NoRecovery, the
// run reconciles: the supervisor detects the failure, the re-placement
// closure drops the dead worker from the cluster view and re-runs the
// strategy over the survivors, and the job re-deploys from the last complete
// checkpoint. This is the controller-side workflow the paper's §7 discussion
// sketches for failure handling: placement quality shows up twice, once as
// re-placement decision time (the scheduler is on the critical path of
// recovery) and once as post-recovery backpressure on the shrunken cluster.
func (d *Deployment) RunRecovery(ctx context.Context, kill engine.WorkerKill, opts engine.JobOptions) (*RecoveryOutcome, error) {
	workers := d.cluster.NumWorkers()
	if kill.Worker < 0 {
		kill.Worker = busiestWorker(d.Plan, workers)
	}
	if kill.Worker >= workers {
		return nil, fmt.Errorf("controller: kill worker %d out of range (%d workers)", kill.Worker, workers)
	}
	opts.FaultPlan.KillWorkers = []engine.WorkerKill{kill}
	run, err := d.Run(ctx, opts)
	if err != nil {
		return nil, err
	}
	res := run.Result
	out := &RecoveryOutcome{
		Outcome:       *run,
		KilledWorker:  kill.Worker,
		TasksOnKilled: len(d.Plan.TasksOn(kill.Worker)),
		Recovered:     res.Recoveries > 0,
	}
	for _, ts := range res.Tasks {
		if res.Elapsed > 0 {
			if f := ts.BackpressureT.Seconds() / res.Elapsed.Seconds(); f > out.Backpressure {
				out.Backpressure = f
			}
		}
	}
	return out, nil
}

// Replace is the reconciliation step, for failures and rescales alike: given
// the dead workers (none for a rescale on a healthy cluster), it restricts
// the cluster view to the survivors (keeping a mapping back to real worker
// indices), re-runs the placement strategy over that view, and remaps the
// resulting plan onto the original cluster. It fails explicitly when the
// survivors cannot host the graph — never returning a silent partial plan.
//
// prev, when non-nil, is the plan that was running when the failure or
// rescale hit; it may name tasks phys no longer has. Its surviving
// assignments are translated onto the restricted view and passed to
// warm-capable strategies, so the re-placement search starts from the layout
// the event left mostly intact (assignments on dead workers are dropped) — a
// reconfiguration should disturb the placement as little as the strategy
// allows, not reshuffle the whole job.
func Replace(ctx context.Context, phys *dataflow.PhysicalGraph, c *cluster.Cluster, strat placement.Strategy, u *costmodel.Usage, deadWorkers []int, seed int64, prev *dataflow.Plan) (*dataflow.Plan, error) {
	dead := make(map[int]bool, len(deadWorkers))
	for _, w := range deadWorkers {
		dead[w] = true
	}
	var viewWorkers []cluster.Worker
	var backing []int
	free := 0
	viewOf := make(map[int]int, c.NumWorkers())
	for w := 0; w < c.NumWorkers(); w++ {
		if dead[w] {
			continue
		}
		viewOf[w] = len(viewWorkers)
		viewWorkers = append(viewWorkers, c.Worker(w))
		backing = append(backing, w)
		free += c.Worker(w).Slots
	}
	if len(viewWorkers) == 0 {
		return nil, fmt.Errorf("controller: no surviving workers")
	}
	if free < phys.NumTasks() {
		return nil, fmt.Errorf("controller: survivors have %d slots for %d tasks", free, phys.NumTasks())
	}
	view, err := cluster.New(viewWorkers)
	if err != nil {
		return nil, err
	}
	var vplan *dataflow.Plan
	wp, warmable := strat.(placement.WarmPlacer)
	if warmable && prev != nil {
		vprev := dataflow.NewPlan()
		for _, t := range phys.Tasks() {
			if w, ok := prev.Worker(t); ok {
				if vw, alive := viewOf[w]; alive {
					vprev.Assign(t, vw)
				}
			}
		}
		vplan, err = wp.PlaceWarm(ctx, phys, view, u, seed, vprev)
	} else {
		vplan, err = strat.Place(ctx, phys, view, u, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("controller: re-placement on survivors: %w", err)
	}
	real := dataflow.NewPlan()
	for _, t := range phys.Tasks() {
		vw, ok := vplan.Worker(t)
		if !ok {
			return nil, fmt.Errorf("controller: re-placement left task %v unassigned", t)
		}
		real.Assign(t, backing[vw])
	}
	return real, nil
}

// busiestWorker returns the worker hosting the most tasks (ties to the
// lowest index).
func busiestWorker(plan *dataflow.Plan, numWorkers int) int {
	counts := plan.WorkerCounts(numWorkers)
	best := 0
	for w, n := range counts {
		if n > counts[best] {
			best = w
		}
	}
	return best
}
