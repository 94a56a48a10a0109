package controller

import (
	"context"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
)

func recoveryCluster(t *testing.T, spec nexmark.QuerySpec, workers int) *cluster.Cluster {
	t.Helper()
	// Size slots so that one worker can die and the survivors still host
	// the whole graph.
	tasks := spec.Graph.TotalTasks()
	slots := tasks/(workers-1) + 1
	c, err := cluster.Homogeneous(workers, slots, 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mustLaunch places and binds spec for a live run.
func mustLaunch(t *testing.T, spec nexmark.QuerySpec, c *cluster.Cluster, strat placement.Strategy, lo LaunchOptions) *Deployment {
	t.Helper()
	d, err := Launch(context.Background(), spec, c, strat, lo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunRecoveryReconciles(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c := recoveryCluster(t, spec, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	d := mustLaunch(t, spec, c, placement.FlinkEvenly{}, LaunchOptions{Seed: 7})
	out, err := d.RunRecovery(ctx,
		engine.WorkerKill{Worker: -1, AtEpoch: 2},
		engine.JobOptions{RecordsPerSource: 600, SnapshotInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	if !out.Recovered || res.Recoveries != 1 {
		t.Fatalf("expected one recovery, got recovered=%v recoveries=%d", out.Recovered, res.Recoveries)
	}
	if res.Failed {
		t.Error("recovered job reported Failed")
	}
	if res.LostRecords != 0 {
		t.Errorf("recovered job lost %d records", res.LostRecords)
	}
	onKilled := len(d.Plan.TasksOn(out.KilledWorker))
	if onKilled <= 0 {
		t.Errorf("kill worker selection picked an empty worker (%d tasks)", onKilled)
	}
	if out.MovedTasks < onKilled {
		t.Errorf("moved %d tasks, but %d lived on the dead worker", out.MovedTasks, onKilled)
	}
	// Every source record must be accounted for after the restart.
	var wantSrc int64
	for _, op := range spec.Graph.Operators() {
		if len(spec.Graph.Upstream(op.ID)) == 0 {
			wantSrc += int64(op.Parallelism) * 600
		}
	}
	if res.SourceRecords != wantSrc {
		t.Errorf("source records = %d, want %d", res.SourceRecords, wantSrc)
	}
	snap := res.Metrics.Snapshot()
	if snap["controller.replacement_seconds"] <= 0 {
		t.Error("controller.replacement_seconds not exported")
	}
	if snap["controller.tasks_moved"] != float64(out.MovedTasks) {
		t.Errorf("controller.tasks_moved = %v, want %d", snap["controller.tasks_moved"], out.MovedTasks)
	}
	if snap["job.recoveries"] != 1 {
		t.Errorf("job.recoveries = %v, want 1", snap["job.recoveries"])
	}
}

func TestRunRecoveryDeterministicOutcome(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c := recoveryCluster(t, spec, 4)
	run := func() *RecoveryOutcome {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		out, err := mustLaunch(t, spec, c, placement.FlinkDefault{}, LaunchOptions{Seed: 3}).RunRecovery(ctx,
			engine.WorkerKill{Worker: -1, AtEpoch: 1},
			engine.JobOptions{RecordsPerSource: 400, SnapshotInterval: 100})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Result.SinkRecords != b.Result.SinkRecords ||
		a.Result.SourceRecords != b.Result.SourceRecords ||
		a.Result.Recoveries != b.Result.Recoveries ||
		a.KilledWorker != b.KilledWorker ||
		a.MovedTasks != b.MovedTasks {
		t.Errorf("recovery outcome not reproducible:\n  a: sink=%d src=%d rec=%d kill=%d moved=%d\n  b: sink=%d src=%d rec=%d kill=%d moved=%d",
			a.Result.SinkRecords, a.Result.SourceRecords, a.Result.Recoveries, a.KilledWorker, a.MovedTasks,
			b.Result.SinkRecords, b.Result.SourceRecords, b.Result.Recoveries, b.KilledWorker, b.MovedTasks)
	}
}

func TestRunRecoveryDegraded(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	c := recoveryCluster(t, spec, 4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Plan-only: FlinkEvenly's plan deployed with no strategy to re-place it.
	plan := mustLaunch(t, spec, c, placement.FlinkEvenly{}, LaunchOptions{Seed: 7}).Plan
	out, err := mustLaunch(t, spec, c, nil, LaunchOptions{Seed: 7, Plan: plan}).RunRecovery(ctx,
		engine.WorkerKill{Worker: -1, AtEpoch: 2},
		engine.JobOptions{RecordsPerSource: 600, SnapshotInterval: 100})
	if err != nil {
		t.Fatal(err)
	}
	if out.Recovered {
		t.Error("plan-only run reported Recovered")
	}
	if !out.Result.Failed {
		t.Error("degraded run did not report Failed")
	}
	if out.Result.LostRecords == 0 {
		t.Error("degraded run lost no records despite a dead worker with tasks")
	}
}

func TestReplaceInfeasibleIsExplicit(t *testing.T) {
	spec, err := nexmark.ByName("Q1-sliding")
	if err != nil {
		t.Fatal(err)
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	u, err := UsageOf(spec.Graph, spec.SourceRates)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly enough slots with all workers alive: any death is infeasible.
	tasks := phys.NumTasks()
	c, err := cluster.Homogeneous(2, (tasks+1)/2, 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replace(context.Background(), phys, c, placement.FlinkEvenly{}, u, []int{0}, 1, nil)
	if err == nil {
		t.Fatal("Replace on slot-starved survivors returned a plan, want explicit error")
	}
}
