package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"capsys/internal/dataflow"
)

// canonicalTaskCounters serializes the deterministic portion of a JobResult:
// per-task record/byte counters plus the job-level record totals. Wall-clock
// fields (busy, backpressure, downtime) and restore-point-dependent fields
// (RecordsReprocessed, SnapshotsTaken, RestoredEpoch) are deliberately
// excluded — the *restore epoch* depends on goroutine timing, but the final
// counters must not.
func canonicalTaskCounters(res *JobResult) string {
	ids := make([]dataflow.TaskID, 0, len(res.Tasks))
	for id := range res.Tasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Op != ids[j].Op {
			return ids[i].Op < ids[j].Op
		}
		return ids[i].Index < ids[j].Index
	})
	var sb strings.Builder
	for _, id := range ids {
		st := res.Tasks[id]
		fmt.Fprintf(&sb, "%v in=%d out=%d bytes=%d\n", id, st.RecordsIn, st.RecordsOut, st.BytesOut)
	}
	fmt.Fprintf(&sb, "sink=%d source=%d\n", res.SinkRecords, res.SourceRecords)
	return sb.String()
}

// canonicalOutcome extends the counters with the fault outcome, which must
// also replay identically.
func canonicalOutcome(res *JobResult) string {
	return canonicalTaskCounters(res) +
		fmt.Sprintf("lost=%d recoveries=%d failed=%v faults=%d\n",
			res.LostRecords, res.Recoveries, res.Failed, len(res.Faults))
}

// winPipeline builds the shared stateful test topology:
//
//	src(2) -> win(2, keyed tumbling count) -> sink(1)
//
// placed explicitly as w0:{src[0],win[0]}, w1:{src[1],win[1]}, w2:{sink[0]}
// on three workers, with snapshots every 100 records per source.
func winPipeline(t *testing.T, fault FaultPlan, withRecovery bool, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 2, Selectivity: 0.01},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	base := dataflow.NewPlan()
	base.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "src", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "win", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "win", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%7), Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	opts := JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
		FaultPlan:        fault,
	}
	if withRecovery {
		opts.OnFailure = func(ev FailureEvent) (*dataflow.Plan, error) {
			dead := make(map[int]bool)
			for _, w := range ev.DeadWorkers {
				dead[w] = true
			}
			np := dataflow.NewPlan()
			for _, task := range phys.Tasks() {
				w := base.MustWorker(task)
				if dead[w] {
					w = 2 // deterministic survivor with free slots
				}
				np.Assign(task, w)
			}
			return np, nil
		}
	}
	for _, mut := range muts {
		mut(&opts)
	}
	job, err := NewJob(g, base, bigWorkers(3, 4), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// runningSumSource is a *stateful* generator: each Next call advances an
// internal accumulator, so the value of record i depends on every call
// before it. Correct recovery must fast-forward the generator through the
// replayed prefix — restarting it cold would change the stream.
type runningSumSource struct{ sum int64 }

func (s *runningSumSource) Open(*TaskContext) error { return nil }
func (s *runningSumSource) Next(i int64) (Record, bool) {
	s.sum += i + 1
	// Key "" -> round-robin partitioning, exercising rr position restore.
	return Record{Value: s.sum, Time: i}, true
}

// sumPipeline: src(2, stateful running-sum) -> check(2) -> sink(1). The
// check operator forwards only records whose value CONTRADICTS the closed
// form sum(1..i+1), so any sink record is proof of a replay bug.
func sumPipeline(t *testing.T, fault FaultPlan, withRecovery bool, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "check", Kind: dataflow.KindFilter, Parallelism: 2, Selectivity: 0},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	base := dataflow.NewPlan()
	base.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "src", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "check", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "check", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) { return &runningSumSource{}, nil },
		"check": func(*TaskContext) (any, error) {
			return NewFilter(func(r Record) bool {
				i := r.Time
				return r.Value.(int64) != (i+1)*(i+2)/2
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	opts := JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		FaultPlan:        fault,
	}
	if withRecovery {
		opts.OnFailure = func(ev FailureEvent) (*dataflow.Plan, error) {
			dead := make(map[int]bool)
			for _, w := range ev.DeadWorkers {
				dead[w] = true
			}
			np := dataflow.NewPlan()
			for _, task := range phys.Tasks() {
				w := base.MustWorker(task)
				if dead[w] {
					w = 2
				}
				np.Assign(task, w)
			}
			return np, nil
		}
	}
	for _, mut := range muts {
		mut(&opts)
	}
	job, err := NewJob(g, base, bigWorkers(3, 4), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestDeterministicRecoveryBattery is the core fault battery: every case is
// run three times and must produce byte-identical counters, and recovered
// cases must match a clean (fault-free) run exactly — zero records lost,
// zero duplicated, despite the mid-run failure.
func TestDeterministicRecoveryBattery(t *testing.T) {
	cases := []struct {
		name           string
		build          func(t *testing.T) *Job
		clean          func(t *testing.T) *Job // nil: no clean-run comparison
		wantRecoveries int
		wantFailed     bool
		wantLost       bool
		verify         func(t *testing.T, res *JobResult)
	}{
		{
			name: "kill-worker-recover",
			build: func(t *testing.T) *Job {
				return winPipeline(t, FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}}, true)
			},
			clean:          func(t *testing.T) *Job { return winPipeline(t, FaultPlan{}, false) },
			wantRecoveries: 1,
		},
		{
			name: "kill-worker-stateful-source-recover",
			build: func(t *testing.T) *Job {
				return sumPipeline(t, FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 4}}}, true)
			},
			clean:          func(t *testing.T) *Job { return sumPipeline(t, FaultPlan{}, false) },
			wantRecoveries: 1,
			verify: func(t *testing.T, res *JobResult) {
				if res.SinkRecords != 0 {
					t.Errorf("check operator flagged %d replayed records with wrong values", res.SinkRecords)
				}
				if res.SourceRecords != 2000 {
					t.Errorf("SourceRecords = %d, want 2000", res.SourceRecords)
				}
			},
		},
		{
			name: "crash-task-recover",
			build: func(t *testing.T) *Job {
				return winPipeline(t, FaultPlan{CrashTasks: []TaskCrash{
					{Task: dataflow.TaskID{Op: "win", Index: 0}, AfterRecords: 250},
				}}, false)
			},
			clean:          func(t *testing.T) *Job { return winPipeline(t, FaultPlan{}, false) },
			wantRecoveries: 1,
		},
		{
			name: "kill-worker-degraded",
			build: func(t *testing.T) *Job {
				return winPipeline(t, FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}}, false)
			},
			wantFailed: true,
			wantLost:   true,
		},
		{
			name: "stall-task",
			build: func(t *testing.T) *Job {
				return winPipeline(t, FaultPlan{StallTasks: []TaskStall{
					{Task: dataflow.TaskID{Op: "win", Index: 0}, AfterRecords: 100, Stall: 20 * time.Millisecond},
				}}, false)
			},
			clean: func(t *testing.T) *Job { return winPipeline(t, FaultPlan{}, false) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var canon []string
			var last *JobResult
			for run := 0; run < 3; run++ {
				res, err := tc.build(t).Run(context.Background())
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				canon = append(canon, canonicalOutcome(res))
				last = res
			}
			for i := 1; i < len(canon); i++ {
				if canon[i] != canon[0] {
					t.Fatalf("run %d diverged from run 0:\n--- run 0 ---\n%s--- run %d ---\n%s", i, canon[0], i, canon[i])
				}
			}
			if last.Recoveries != tc.wantRecoveries {
				t.Errorf("Recoveries = %d, want %d", last.Recoveries, tc.wantRecoveries)
			}
			if last.Failed != tc.wantFailed {
				t.Errorf("Failed = %v, want %v", last.Failed, tc.wantFailed)
			}
			if tc.wantLost && last.LostRecords == 0 {
				t.Error("expected lost records, got none")
			}
			if !tc.wantLost && last.LostRecords != 0 {
				t.Errorf("LostRecords = %d, want 0", last.LostRecords)
			}
			if tc.wantRecoveries > 0 {
				if last.Downtime <= 0 {
					t.Error("recovered run reports zero downtime")
				}
				if last.SnapshotsTaken == 0 {
					t.Error("recovered run reports zero snapshots")
				}
				recovered := false
				for _, f := range last.Faults {
					if f.Recovered {
						recovered = true
					}
				}
				if !recovered {
					t.Errorf("no fault marked recovered: %+v", last.Faults)
				}
			}
			if tc.clean != nil {
				cres, err := tc.clean(t).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := canonicalTaskCounters(last), canonicalTaskCounters(cres); got != want {
					t.Errorf("recovered counters differ from clean run (exactly-once violated):\n--- recovered ---\n%s--- clean ---\n%s", got, want)
				}
			}
			if tc.verify != nil {
				tc.verify(t, last)
			}
		})
	}
}

// A recovered run must expose the recovery in the metrics registry too.
func TestRecoveryMetricsExported(t *testing.T) {
	job := winPipeline(t, FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}}, true)
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics.Snapshot()
	if snap["job.recoveries"] != 1 {
		t.Errorf("job.recoveries = %v, want 1", snap["job.recoveries"])
	}
	if snap["job.downtime_seconds"] <= 0 {
		t.Error("job.downtime_seconds not positive")
	}
	if snap["job.snapshots"] <= 0 {
		t.Error("job.snapshots not positive")
	}
	// Tasks moved off the dead worker must report their new home.
	for _, id := range []dataflow.TaskID{{Op: "src", Index: 1}, {Op: "win", Index: 1}} {
		if w := res.Tasks[id].Worker; w == 1 {
			t.Errorf("task %v still reported on dead worker 1", id)
		}
	}
}

// Faults referencing nonexistent workers/tasks, and kills without a snapshot
// clock, must be rejected up front.
func TestFaultPlanValidation(t *testing.T) {
	mk := func(fault FaultPlan, interval int64) error {
		g := chainGraph(t, []dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
			{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
		})
		factories := map[dataflow.OperatorID]Factory{
			"src": func(*TaskContext) (any, error) {
				return NewSource(func(task, i int64) (Record, bool) { return Record{}, false }), nil
			},
			"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
		}
		_, err := NewJob(g, roundRobinPlan(t, g, 1), bigWorkers(1, 2), factories, JobOptions{
			RecordsPerSource: 10,
			SnapshotInterval: interval,
			FaultPlan:        fault,
		})
		return err
	}
	if err := mk(FaultPlan{KillWorkers: []WorkerKill{{Worker: 5, AtEpoch: 1}}}, 10); err == nil {
		t.Error("kill of nonexistent worker accepted")
	}
	if err := mk(FaultPlan{KillWorkers: []WorkerKill{{Worker: 0, AtEpoch: 1}}}, 0); err == nil {
		t.Error("worker kill without snapshot interval accepted")
	}
	if err := mk(FaultPlan{CrashTasks: []TaskCrash{{Task: dataflow.TaskID{Op: "nope", Index: 0}, AfterRecords: 1}}}, 10); err == nil {
		t.Error("crash of unknown task accepted")
	}
	if err := mk(FaultPlan{StallTasks: []TaskStall{{Task: dataflow.TaskID{Op: "nope", Index: 0}}}}, 10); err == nil {
		t.Error("stall of unknown task accepted")
	}
	if err := mk(FaultPlan{}, 10); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// A recovery plan that re-uses the dead worker, drops tasks, or overloads a
// survivor must fail the run loudly, never deploy silently.
func TestRecoveryPlanValidated(t *testing.T) {
	allOn := func(phys *dataflow.PhysicalGraph, w int) *dataflow.Plan {
		np := dataflow.NewPlan()
		for _, task := range phys.Tasks() {
			np.Assign(task, w)
		}
		return np
	}
	bad := []struct {
		name  string
		slots int // per worker; the job has four tasks
		plan  func(phys *dataflow.PhysicalGraph, ev FailureEvent) *dataflow.Plan
	}{
		{"dead-worker", 4, func(phys *dataflow.PhysicalGraph, ev FailureEvent) *dataflow.Plan {
			return allOn(phys, ev.Worker) // everything onto the corpse
		}},
		{"partial", 4, func(phys *dataflow.PhysicalGraph, ev FailureEvent) *dataflow.Plan {
			np := dataflow.NewPlan()
			np.Assign(phys.Tasks()[0], 0)
			return np
		}},
		{"nil", 4, func(*dataflow.PhysicalGraph, FailureEvent) *dataflow.Plan { return nil }},
		{"overloaded", 3, func(phys *dataflow.PhysicalGraph, ev FailureEvent) *dataflow.Plan {
			return allOn(phys, 0) // complete and alive, but four tasks on three slots
		}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			g := chainGraph(t, []dataflow.Operator{
				{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
				{ID: "sink", Kind: dataflow.KindSink, Parallelism: 2},
			})
			phys, err := dataflow.Expand(g)
			if err != nil {
				t.Fatal(err)
			}
			factories := map[dataflow.OperatorID]Factory{
				"src": func(*TaskContext) (any, error) {
					return NewSource(func(task, i int64) (Record, bool) {
						return Record{Value: i, Time: i}, true
					}), nil
				},
				"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
			}
			opts := JobOptions{
				RecordsPerSource: 500,
				SnapshotInterval: 50,
				FaultPlan:        FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 2}}},
				OnFailure: func(ev FailureEvent) (*dataflow.Plan, error) {
					return tc.plan(phys, ev), nil
				},
			}
			job, err := NewJob(g, roundRobinPlan(t, g, 2), bigWorkers(2, tc.slots), factories, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Run(context.Background()); !errors.Is(err, ErrInvalidPlan) {
				t.Errorf("Run error = %v, want ErrInvalidPlan", err)
			}
		})
	}
}

// Snapshots alone (no faults) must not change results, and clean runs with
// and without snapshots must agree — the barrier machinery is supposed to
// be invisible when nothing fails.
func TestSnapshotsDoNotPerturbResults(t *testing.T) {
	with, err := winPipeline(t, FaultPlan{}, false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 2, Selectivity: 0.01},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%7), Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, roundRobinPlan(t, g, 3), bigWorkers(3, 4), factories, JobOptions{
		RecordsPerSource: 1000,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if with.SinkRecords != without.SinkRecords {
		t.Errorf("snapshots changed sink output: %d vs %d", with.SinkRecords, without.SinkRecords)
	}
	if with.SourceRecords != without.SourceRecords {
		t.Errorf("snapshots changed source output: %d vs %d", with.SourceRecords, without.SourceRecords)
	}
	if with.SnapshotsTaken == 0 {
		t.Error("no snapshots recorded despite SnapshotInterval")
	}
}
