package engine

import (
	"context"
	"fmt"
	"testing"

	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
)

// TestRouteMatchesStateAssignment pins the routing↔state contract live
// rescaling depends on: the engine routes a keyed record to exactly the task
// whose key-group range (statebackend.RangeFor / TaskForGroup) owns the
// key's group. If these ever diverge, a rescaled task would receive records
// for state it does not hold.
func TestRouteMatchesStateAssignment(t *testing.T) {
	const G = statebackend.DefaultKeyGroups
	for _, n := range []int{1, 2, 3, 5, 8} {
		e := &downstreamEdge{inboxes: make([]chan message, n), groups: G}
		for i := 0; i < 200; i++ {
			// A record key may hold a NUL of its own: its records still go
			// where every storage key derived from it is kept.
			for _, key := range []string{fmt.Sprintf("key-%d", i), fmt.Sprintf("key\x00%d", i), fmt.Sprintf("\x00%d", i)} {
				got := e.route(Record{Key: key})
				for _, sk := range []string{key, winKey(key, int64(i)*100), sideKey(key, i%2)} {
					if want := statebackend.TaskForGroup(statebackend.KeyGroupOf(sk, G), n, G); got != want {
						t.Fatalf("n=%d key %q routed to %d, its state under %q lives on %d", n, key, got, sk, want)
					}
				}
			}
		}
	}
}

// rescalePipeline builds the shared live-rescale topology:
//
//	src(2) [-> tag(2, Forward, fusable)] -> win(winP, keyed) -> sink(1)
//
// Keys cycle k0..k19, 1000 records per source with a barrier every 100.
// With fused=true the src->tag pair is Forward-connected and co-located, so
// the run exercises rescale with a live fused chain in the pipeline (the
// rescaled operator itself is never part of a Forward pair — that would pin
// its parallelism).
func rescalePipeline(t *testing.T, winP int, fused bool, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	ops := []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
	}
	if fused {
		ops = append(ops, dataflow.Operator{ID: "tag", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1})
	}
	ops = append(ops,
		dataflow.Operator{ID: "win", Kind: dataflow.KindWindow, Parallelism: winP, Selectivity: 0.01},
		dataflow.Operator{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	)
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	if fused {
		if err := g.AddEdge(dataflow.Edge{From: "src", To: "tag", Mode: dataflow.Forward}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(dataflow.Edge{From: "tag", To: "win"}); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := g.AddEdge(dataflow.Edge{From: "src", To: "win"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(dataflow.Edge{From: "win", To: "sink"}); err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlan()
	plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "src", Index: 1}, 1)
	if fused {
		plan.Assign(dataflow.TaskID{Op: "tag", Index: 0}, 0)
		plan.Assign(dataflow.TaskID{Op: "tag", Index: 1}, 1)
	}
	for i := 0; i < winP; i++ {
		plan.Assign(dataflow.TaskID{Op: "win", Index: i}, i%3)
	}
	plan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%20), Value: i, Time: i}, true
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	if fused {
		factories["tag"] = func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record { return r }), nil
		}
	}
	opts := JobOptions{
		RecordsPerSource: 1000,
		SnapshotInterval: 100,
		Stateful:         map[dataflow.OperatorID]bool{"win": true},
		// Throttle the sources so the drain abort always lands mid-stream:
		// unthrottled, an in-memory source can race to end-of-stream between
		// the epoch completing and the abort flag being observed, which turns
		// the bounded-replay assertion into a coin flip.
		SourceRate: map[dataflow.OperatorID]float64{"src": 20000},
	}
	for _, mut := range muts {
		mut(&opts)
	}
	job, err := NewJob(g, plan, bigWorkers(3, 6), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestRescaleLive drains a running job to an epoch, repartitions the window
// operator's key-groups, and resumes — up and down, fused and unfused,
// across every transport. Nothing may be lost, the replay must stay bounded
// (no restart from record zero), and the final record totals must match an
// un-rescaled reference run.
func TestRescaleLive(t *testing.T) {
	ref, err := rescalePipeline(t, 2, false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ref.SinkRecords == 0 {
		t.Fatal("reference run sank nothing")
	}
	for _, transport := range TransportNames() {
		for _, fused := range []bool{false, true} {
			for _, to := range []int{3, 1} {
				from := 2
				name := fmt.Sprintf("%s/fused=%v/%d→%d", transport, fused, from, to)
				t.Run(name, func(t *testing.T) {
					job := rescalePipeline(t, from, fused, func(o *JobOptions) {
						o.Transport = transport
						o.DisableFusion = !fused
						o.Rescales = []RescalePlan{{Op: "win", Parallelism: to, AtEpoch: 3}}
					})
					res, err := job.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if res.Rescales != 1 {
						t.Fatalf("Rescales = %d, want 1", res.Rescales)
					}
					if res.Failed || res.LostRecords != 0 {
						t.Fatalf("rescale lost records: failed=%v lost=%d", res.Failed, res.LostRecords)
					}
					if res.SinkRecords != ref.SinkRecords || res.SourceRecords != ref.SourceRecords {
						t.Fatalf("totals diverge from reference: sink %d/%d source %d/%d",
							res.SinkRecords, ref.SinkRecords, res.SourceRecords, ref.SourceRecords)
					}
					seen := 0
					for id := range res.Tasks {
						if id.Op == "win" {
							seen++
						}
					}
					if seen != to {
						t.Fatalf("result has %d win tasks, want %d", seen, to)
					}
					// Replay is bounded by roughly one epoch of in-flight work
					// per consumer task — never a restart from record zero.
					if res.RecordsReprocessed >= 1000 {
						t.Fatalf("reprocessed %d records — looks like a full replay", res.RecordsReprocessed)
					}
					if res.RestoredEpoch < 3 {
						t.Fatalf("RestoredEpoch = %d, want >= 3", res.RestoredEpoch)
					}
					if res.RescaleDowntime <= 0 {
						t.Fatalf("RescaleDowntime = %v, want > 0", res.RescaleDowntime)
					}
					// Both directions change group ownership for some of the
					// 20 live keys, so state must actually move.
					if res.RescaleMovedBytes <= 0 {
						t.Fatalf("RescaleMovedBytes = %d, want > 0", res.RescaleMovedBytes)
					}
					if c := res.Metrics.Counter("job.rescales").Value(); c != 1 {
						t.Fatalf("job.rescales metric = %d, want 1", c)
					}
				})
			}
		}
	}
}

// TestRescaleIdentity: a rescale to the operator's current parallelism is a
// full drain/repartition/resume cycle that must move zero bytes and leave
// every total identical to the reference — the live regression gate that the
// key-group refactor kept checkpoint/restore exact.
func TestRescaleIdentity(t *testing.T) {
	ref, err := rescalePipeline(t, 2, false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range TransportNames() {
		t.Run(transport, func(t *testing.T) {
			job := rescalePipeline(t, 2, false, func(o *JobOptions) {
				o.Transport = transport
				o.Rescales = []RescalePlan{{Op: "win", Parallelism: 2, AtEpoch: 2}}
			})
			res, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Rescales != 1 {
				t.Fatalf("Rescales = %d, want 1", res.Rescales)
			}
			if res.RescaleMovedBytes != 0 {
				t.Fatalf("identity rescale moved %d bytes, want 0", res.RescaleMovedBytes)
			}
			if res.LostRecords != 0 || res.SinkRecords != ref.SinkRecords {
				t.Fatalf("identity rescale changed outcome: lost=%d sink %d/%d",
					res.LostRecords, res.SinkRecords, ref.SinkRecords)
			}
			if canonicalTaskCounters(res) != canonicalTaskCounters(ref) {
				t.Fatalf("identity rescale changed task counters\n got:\n%s\nwant:\n%s",
					canonicalTaskCounters(res), canonicalTaskCounters(ref))
			}
		})
	}
}

// TestRescaleValidation covers the static rejections.
func TestRescaleValidation(t *testing.T) {
	job := rescalePipeline(t, 2, false)
	for name, err := range map[string]error{
		"unknown op":     job.Rescale("nope", 2),
		"source":         job.Rescale("src", 3),
		"zero":           job.Rescale("win", 0),
		"over keygroups": job.Rescale("win", statebackend.DefaultKeyGroups+1),
	} {
		if err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := job.Rescale("win", 3); err != nil {
		t.Errorf("valid rescale rejected: %v", err)
	}

	// Without checkpoints there is no epoch to drain to.
	noSnap := rescalePipeline(t, 2, false, func(o *JobOptions) { o.SnapshotInterval = 0 })
	if err := noSnap.Rescale("win", 3); err == nil {
		t.Error("rescale without SnapshotInterval should fail")
	}

	// A Forward-edge peer pins the operator's parallelism.
	fusedJob := rescalePipeline(t, 2, true)
	if err := fusedJob.Rescale("tag", 3); err == nil {
		t.Error("rescaling one side of a Forward pair should fail")
	}
}

// TestRescaleDuringFaultRecovery: a kill and a pending rescale compose — the
// fault wins the race, recovery restores, and the still-pending rescale
// applies at a later epoch. Nothing lost, totals intact.
func TestRescaleDuringFaultRecovery(t *testing.T) {
	ref, err := rescalePipeline(t, 2, false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	job := rescalePipeline(t, 2, false, func(o *JobOptions) {
		o.FaultPlan = FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 2}}}
		o.Rescales = []RescalePlan{{Op: "win", Parallelism: 3, AtEpoch: 4}}
		o.OnFailure = func(ev FailureEvent) (*dataflow.Plan, error) {
			dead := make(map[int]bool)
			for _, w := range ev.DeadWorkers {
				dead[w] = true
			}
			// Everything from a dead worker moves to w2 (6 slots).
			np := dataflow.NewPlan()
			base := map[dataflow.TaskID]int{
				{Op: "src", Index: 0}:  0,
				{Op: "src", Index: 1}:  1,
				{Op: "win", Index: 0}:  0,
				{Op: "win", Index: 1}:  1,
				{Op: "sink", Index: 0}: 2,
			}
			for task, w := range base {
				if dead[w] {
					w = 2
				}
				np.Assign(task, w)
			}
			return np, nil
		}
	})
	res, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries < 1 {
		t.Fatalf("Recoveries = %d, want >= 1", res.Recoveries)
	}
	if res.Rescales != 1 {
		t.Fatalf("Rescales = %d, want 1", res.Rescales)
	}
	if res.Failed || res.LostRecords != 0 {
		t.Fatalf("failed=%v lost=%d", res.Failed, res.LostRecords)
	}
	if res.SinkRecords != ref.SinkRecords {
		t.Fatalf("sink %d, reference %d", res.SinkRecords, ref.SinkRecords)
	}
}
