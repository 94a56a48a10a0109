package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// scriptedAttempt is one attempt of a lifecycle script: which checkpoint
// epochs complete while it runs, how far past its newest snapshot every
// surviving task gets, and how it ends (no fault = it runs to completion,
// unless a completed epoch made a rescale due, in which case it drains).
type scriptedAttempt struct {
	epochs   []int64
	progress int64
	fault    *FailureEvent
	dead     []int
}

// scriptedExecutor plays a script against a Supervisor on a hand-cranked
// clock: deploying an attempt takes 10ms, running it a second. The fault or
// drain that ends an attempt is stamped with the clock at that instant, so
// every correctly opened and closed downtime clock measures exactly 10ms.
type scriptedExecutor struct {
	t      *testing.T
	sup    *Supervisor
	script []scriptedAttempt
	now    time.Time

	specs     []AttemptSpec
	rescaled  []int // parallelisms SetParallelism was asked for
	lastEpoch int64
}

func (x *scriptedExecutor) SetParallelism(op dataflow.OperatorID, parallelism int) error {
	x.rescaled = append(x.rescaled, parallelism)
	return nil
}

func (x *scriptedExecutor) RunAttempt(_ context.Context, at AttemptSpec) (AttemptEnd, error) {
	if at.No > len(x.script) {
		x.t.Fatalf("supervisor started attempt %d of a %d-attempt script", at.No, len(x.script))
	}
	step := x.script[at.No-1]
	x.specs = append(x.specs, at)
	x.now = x.now.Add(10 * time.Millisecond)
	at.Up()
	x.now = x.now.Add(time.Second)

	end := AttemptEnd{Fault: step.fault, NewDead: step.dead}
	for _, e := range step.epochs {
		for _, task := range at.Tasks {
			done, drain := x.sup.RecordSnapshot(&TaskSnapshot{Task: task, Epoch: e, RecordsIn: e * 100})
			if done > 0 {
				x.lastEpoch = done
			}
			if drain {
				end.DrainEpoch = done
			}
		}
		if end.DrainEpoch > 0 {
			break
		}
	}
	end.At = x.now
	gone := make(map[int]bool)
	for _, w := range append(append([]int(nil), at.Dead...), step.dead...) {
		gone[w] = true
	}
	rep := &WorkerReport{Attempt: at.No, Completed: step.fault == nil && end.DrainEpoch == 0, Tasks: make(map[dataflow.TaskID]TaskStats)}
	for _, task := range at.Tasks {
		if w := at.Plan.MustWorker(task); !gone[w] {
			rep.Tasks[task] = TaskStats{Worker: w, RecordsIn: x.lastEpoch*100 + step.progress}
		}
	}
	end.Reports = []*WorkerReport{rep}
	for _, w := range step.dead {
		end.Faults = append(end.Faults, FaultRecord{Kind: FaultKillWorker, Worker: w})
	}
	return end, nil
}

// TestSupervisorLifecycle drives the one lifecycle through every transition
// with a scripted executor and asserts the invariants once, for in-process
// and distributed runs alike — both are this loop around a real executor.
func TestSupervisorLifecycle(t *testing.T) {
	kill := func(w int) *FailureEvent { return &FailureEvent{Kind: FaultKillWorker, Worker: w, WorkerID: "w"} }
	crash := &FailureEvent{Kind: FaultCrashTask, Worker: -1, Task: dataflow.TaskID{Op: "win", Index: 0}}
	peerDown := &FailureEvent{Kind: FaultPeerDown, Worker: -1}
	const recovery = "recovery.start recovery.restart"
	const rescale = "rescale.start rescale.complete"

	cases := []struct {
		name     string
		rescales []RescalePlan
		script   []scriptedAttempt
		// wantRestore is each attempt's restore epoch, wantTasks its task count.
		wantRestore []int64
		wantTasks   []int
		wantDead    []int
		// wantReprocessed sums progress × reporting tasks over the outages.
		wantReprocessed int64
		wantRecoveries  int
		wantRescales    int
		wantEvents      string
		// wantReplaced is the number of attempts whose plan differs from its
		// predecessor's.
		wantReplaced int
		// noHook runs without an OnFault hook; wantErr is the failure the run
		// must end with (the other want* fields are then unused).
		noHook  bool
		wantErr error
	}{
		{
			name: "kill then restore",
			script: []scriptedAttempt{
				{epochs: []int64{1, 2}, progress: 30, fault: kill(1), dead: []int{1}},
				{epochs: []int64{3}},
			},
			wantRestore: []int64{0, 2}, wantTasks: []int{5, 5}, wantDead: []int{1},
			wantReprocessed: 30 * 3, wantRecoveries: 1, wantEvents: recovery, wantReplaced: 1,
		},
		{
			name: "crash with no complete epoch",
			script: []scriptedAttempt{
				{progress: 40, fault: crash},
				{epochs: []int64{1}},
			},
			wantRestore: []int64{0, 0}, wantTasks: []int{5, 5},
			wantReprocessed: 40 * 5, wantRecoveries: 1, wantEvents: recovery,
		},
		{
			name:     "rescale drain racing a fault",
			rescales: []RescalePlan{{Op: "win", Parallelism: 3, AtEpoch: 1}},
			script: []scriptedAttempt{
				{epochs: []int64{1}, progress: 10, fault: crash}, // drained and faulted: the fault wins
				{epochs: []int64{2}, progress: 20},               // the rescale re-triggers and applies
				{epochs: []int64{3}},
			},
			wantRestore: []int64{0, 1, 2}, wantTasks: []int{5, 5, 6},
			wantReprocessed: 10*5 + 20*5, wantRecoveries: 1, wantRescales: 1,
			wantEvents: recovery + " " + rescale, wantReplaced: 1,
		},
		{
			name:     "two back-to-back rescales",
			rescales: []RescalePlan{{Op: "win", Parallelism: 3, AtEpoch: 1}, {Op: "win", Parallelism: 1, AtEpoch: 1}},
			script: []scriptedAttempt{
				{epochs: []int64{1}, progress: 5},
				{epochs: []int64{2}, progress: 5},
				{epochs: []int64{3}},
			},
			wantRestore: []int64{0, 1, 2}, wantTasks: []int{5, 6, 4},
			wantReprocessed: 5*5 + 5*6, wantRescales: 2,
			wantEvents: rescale + " " + rescale, wantReplaced: 2,
		},
		{
			name: "four data-plane failures",
			script: []scriptedAttempt{
				{epochs: []int64{1}, progress: 1, fault: peerDown},
				{progress: 1, fault: peerDown},
				{epochs: []int64{2}, progress: 1, fault: peerDown},
				{progress: 1, fault: kill(2), dead: []int{2}}, // budget spent: the executor escalates
				{epochs: []int64{3}},
			},
			wantRestore: []int64{0, 1, 1, 2, 2}, wantTasks: []int{5, 5, 5, 5, 5}, wantDead: []int{2},
			wantReprocessed: 3*5 + 4, wantRecoveries: 4,
			wantEvents: strings.TrimSpace(strings.Repeat(recovery+" ", 4)), wantReplaced: 1,
		},
		{
			name: "death during abort",
			script: []scriptedAttempt{
				{epochs: []int64{1}, progress: 7, fault: kill(0), dead: []int{0, 1}},
				{epochs: []int64{2}},
			},
			wantRestore: []int64{0, 1}, wantTasks: []int{5, 5}, wantDead: []int{0, 1},
			wantReprocessed: 7 * 1, wantRecoveries: 1, wantEvents: recovery, wantReplaced: 1,
		},
		{
			name:    "last worker dies",
			script:  []scriptedAttempt{{epochs: []int64{1}, fault: kill(0), dead: []int{0, 1, 2}}},
			wantErr: ErrAllWorkersDead,
		},
		{
			name:    "death without a re-placement hook",
			script:  []scriptedAttempt{{epochs: []int64{1}, fault: kill(1), dead: []int{1}}},
			noHook:  true,
			wantErr: ErrNoReplacementHook,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// src[i], win[i] on worker i; sink on worker 2; every worker can
			// host the whole job.
			tasks := []dataflow.TaskID{{Op: "src", Index: 0}, {Op: "src", Index: 1}, {Op: "win", Index: 0}, {Op: "win", Index: 1}, {Op: "sink", Index: 0}}
			plan := dataflow.NewPlan()
			for _, task := range tasks {
				plan.Assign(task, task.Index)
			}
			plan.Assign(tasks[4], 2)
			workers := bigWorkers(3, 6).Workers
			x := &scriptedExecutor{t: t, script: tc.script, now: time.Unix(1700000000, 0)}
			var events []telemetry.Event
			cfg := SupervisorConfig{
				Tasks: tasks, Plan: plan, Workers: workers,
				KeyGroups: DefaultKeyGroups, SnapshotInterval: 100, Transport: TransportBatched,
				// Deaths move the dead workers' tasks to the highest live
				// worker; anything else keeps the placement.
				OnFault: func(ev FailureEvent) (*dataflow.Plan, error) {
					if ev.Kind != FaultKillWorker {
						return nil, nil
					}
					dead := make(map[int]bool)
					for _, w := range ev.DeadWorkers {
						dead[w] = true
					}
					home := len(workers) - 1
					for dead[home] {
						home--
					}
					prev, cur := x.specs[len(x.specs)-1].Plan, dataflow.NewPlan()
					for _, task := range x.specs[len(x.specs)-1].Tasks {
						if w := prev.MustWorker(task); dead[w] {
							cur.Assign(task, home)
						} else {
							cur.Assign(task, w)
						}
					}
					return cur, nil
				},
				Emit: func(ev telemetry.Event) { events = append(events, ev) },
				Now:  func() time.Time { return x.now },
			}
			if tc.noHook {
				cfg.OnFault = nil
			}
			sup, err := NewSupervisor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x.sup = sup
			for _, p := range tc.rescales {
				if err := sup.Schedule(p); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sup.Run(context.Background(), x)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Run error = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(x.specs) != len(tc.script) {
				t.Fatalf("ran %d attempts, script has %d", len(x.specs), len(tc.script))
			}

			// Attempts are numbered from 1, restore from monotone epochs, and
			// never place a task on a worker already known dead.
			var restore []int64
			var taskCounts []int
			replaced := 0
			for i, at := range x.specs {
				if at.No != i+1 {
					t.Errorf("attempt %d numbered %d", i+1, at.No)
				}
				if i > 0 && at.RestoreEpoch < x.specs[i-1].RestoreEpoch {
					t.Errorf("restore epoch went backwards: %d after %d", at.RestoreEpoch, x.specs[i-1].RestoreEpoch)
				}
				if i > 0 && !at.Plan.Equal(x.specs[i-1].Plan) {
					replaced++
				}
				restore = append(restore, at.RestoreEpoch)
				taskCounts = append(taskCounts, len(at.Tasks))
				for _, w := range at.Dead {
					if n := len(at.Plan.TasksOn(w)); n > 0 {
						t.Errorf("attempt %d places %d tasks on dead worker %d", at.No, n, w)
					}
				}
			}
			if !reflect.DeepEqual(restore, tc.wantRestore) {
				t.Errorf("restore epochs = %v, want %v", restore, tc.wantRestore)
			}
			if !reflect.DeepEqual(taskCounts, tc.wantTasks) {
				t.Errorf("task counts = %v, want %v", taskCounts, tc.wantTasks)
			}
			if replaced != tc.wantReplaced {
				t.Errorf("%d attempts changed the placement, want %d", replaced, tc.wantReplaced)
			}
			if last := x.specs[len(x.specs)-1]; !reflect.DeepEqual(last.Dead, tc.wantDead) && len(last.Dead)+len(tc.wantDead) > 0 {
				t.Errorf("dead set = %v, want %v", last.Dead, tc.wantDead)
			}
			if len(x.rescaled) != tc.wantRescales {
				t.Errorf("executor rewrote its topology %d times, want %d", len(x.rescaled), tc.wantRescales)
			}

			// Each outage is counted once and each downtime clock is opened
			// and closed exactly once: 10ms of redeploy per outage, none of
			// the seconds spent running.
			if res.Recoveries != tc.wantRecoveries || res.Rescales != tc.wantRescales {
				t.Errorf("recoveries/rescales = %d/%d, want %d/%d", res.Recoveries, res.Rescales, tc.wantRecoveries, tc.wantRescales)
			}
			if want := time.Duration(tc.wantRecoveries) * 10 * time.Millisecond; res.Downtime != want {
				t.Errorf("Downtime = %v, want %v", res.Downtime, want)
			}
			if want := time.Duration(tc.wantRescales) * 10 * time.Millisecond; res.RescaleDowntime != want {
				t.Errorf("RescaleDowntime = %v, want %v", res.RescaleDowntime, want)
			}
			if res.RestoredEpoch != tc.wantRestore[len(tc.wantRestore)-1] {
				t.Errorf("RestoredEpoch = %d, want %d", res.RestoredEpoch, tc.wantRestore[len(tc.wantRestore)-1])
			}
			// Reprocessing is the survivors' progress past the restore point:
			// exact here, and by construction under one epoch per task.
			if res.RecordsReprocessed != tc.wantReprocessed {
				t.Errorf("RecordsReprocessed = %d, want %d", res.RecordsReprocessed, tc.wantReprocessed)
			}
			if len(res.Faults) != len(tc.wantDead) {
				t.Errorf("faults = %+v, want one per dead worker %v", res.Faults, tc.wantDead)
			}
			for _, f := range res.Faults {
				if !f.Recovered {
					t.Errorf("fault %+v not marked recovered", f)
				}
			}

			// job.start and job.complete bracket the timeline exactly once;
			// in between every outage is a start → restart/complete pair.
			var kinds []string
			for _, ev := range events {
				kinds = append(kinds, ev.Kind)
			}
			want := strings.TrimSpace("job.start " + tc.wantEvents + " job.complete")
			if got := strings.Join(kinds, " "); got != strings.Join(strings.Fields(want), " ") {
				t.Errorf("events = %s\n  want   %s", got, want)
			}
		})
	}
}
