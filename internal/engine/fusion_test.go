package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"

	"capsys/internal/dataflow"
)

// This file is the fusion equivalence battery: every pipeline here is run
// fused (the default) and unfused (DisableFusion), under every transport,
// and must produce identical canonical outcomes — per-task counters, sink
// record multisets, join outputs, snapshot counts and fault-recovery
// results. Fusion may only change speed, never what was processed.

// forwardChain builds a linear graph whose edges are Forward wherever the
// adjacent operators have equal parallelism (fusion-eligible), AllToAll
// otherwise.
func forwardChain(t testing.TB, ops []dataflow.Operator) *dataflow.LogicalGraph {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range ops {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(ops); i++ {
		e := dataflow.Edge{From: ops[i-1].ID, To: ops[i].ID}
		if ops[i-1].Parallelism == ops[i].Parallelism {
			e.Mode = dataflow.Forward
		}
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// sinkTap collects sink records for canonical comparison. The callback runs
// on the sink task's goroutine; the mutex only guards against a concurrent
// final read.
type sinkTap struct {
	mu   sync.Mutex
	recs []string
}

func (s *sinkTap) add(r Record) {
	s.mu.Lock()
	s.recs = append(s.recs, fmt.Sprintf("%s|%v|%d", r.Key, r.Value, r.Time))
	s.mu.Unlock()
}

// canon returns the collected records as a sorted multiset string.
func (s *sinkTap) canon() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.recs...)
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// fusedWinPipeline: src(2) =fwd=> norm(2, map) =fwd=> win(2, keyed stateful
// window) -> sink(1). Placed w0:{src0,norm0,win0}, w1:{src1,norm1,win1},
// w2:{sink0}, so both Forward runs are same-worker and fuse into
// three-operator chains. The window keeps keyed state, so fused snapshots
// must capture identical state images for recovery to replay exactly.
func fusedWinPipeline(t *testing.T, tap *sinkTap, fault FaultPlan, withRecovery bool, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := forwardChain(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "norm", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "win", Kind: dataflow.KindWindow, Parallelism: 2, Selectivity: 0.01},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	base := dataflow.NewPlan()
	for _, op := range []dataflow.OperatorID{"src", "norm", "win"} {
		base.Assign(dataflow.TaskID{Op: op, Index: 0}, 0)
		base.Assign(dataflow.TaskID{Op: op, Index: 1}, 1)
	}
	base.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", i%7), Value: i, Time: i}, true
			}), nil
		},
		"norm": func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record {
				r.Value = r.Value.(int64) * 2
				return r
			}), nil
		},
		"win": func(*TaskContext) (any, error) {
			return NewSlidingWindow(100, 100, countAgg, countResult), nil
		},
		"sink": func(*TaskContext) (any, error) {
			if tap == nil {
				return NewSink(nil), nil
			}
			return NewSink(tap.add), nil
		},
	}
	opts := JobOptions{
		RecordsPerSource: 600,
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
					w = 2 // deterministic survivor; chains stay co-located
				}
				np.Assign(task, w)
			}
			return np, nil
		}
	}
	for _, mut := range muts {
		mut(&opts)
	}
	job, err := NewJob(g, base, bigWorkers(3, 6), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fusedSumPipeline: stateful running-sum src(2) =fwd=> check(2, filter) ->
// sink(1). The Forward edge fuses; the round-robin AllToAll edge into the
// sink keeps exercising rr-cursor checkpointing, and the check operator
// forwards only records contradicting the closed form — any sink record is
// proof of a replay bug.
func fusedSumPipeline(t *testing.T, fault FaultPlan, withRecovery bool, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := forwardChain(t, []dataflow.Operator{
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
		RecordsPerSource: 600,
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
	job, err := NewJob(g, base, bigWorkers(3, 6), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fusedJoinPipeline: left(1) + right(1) -> join(2, AllToAll fan-in, must
// NOT fuse) =fwd=> tag(2, map) -> sink(1). The post-join Forward edge fuses
// when co-located; join outputs observed at the sink must be identical.
func fusedJoinPipeline(t *testing.T, tap *sinkTap, muts ...func(*JobOptions)) *Job {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "left", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "right", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "join", Kind: dataflow.KindJoin, Parallelism: 2, Selectivity: 1},
		{ID: "tag", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{
		{From: "left", To: "join"},
		{From: "right", To: "join"},
		{From: "join", To: "tag", Mode: dataflow.Forward},
		{From: "tag", To: "sink"},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	base := dataflow.NewPlan()
	base.Assign(dataflow.TaskID{Op: "left", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "right", Index: 0}, 1)
	base.Assign(dataflow.TaskID{Op: "join", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "join", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "tag", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "tag", Index: 1}, 1)
	base.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"left": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				if i >= 40 {
					return Record{}, false
				}
				return Record{Key: fmt.Sprintf("k%d", i%5), Value: i, Time: i}, true
			}), nil
		},
		"right": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				if i >= 60 {
					return Record{}, false
				}
				return Record{Key: fmt.Sprintf("k%d", i%5), Value: 100 + i, Time: i}, true
			}), nil
		},
		"join": func(*TaskContext) (any, error) {
			return NewIncrementalJoin(func(l, r Record) (Record, bool) {
				return Record{Key: l.Key, Value: fmt.Sprintf("%v+%v", l.Value, r.Value), Time: l.Time}, true
			}, 0), nil
		},
		"tag": func(*TaskContext) (any, error) {
			return NewMap(func(r Record) Record {
				r.Value = "t:" + r.Value.(string)
				return r
			}), nil
		},
		"sink": func(*TaskContext) (any, error) { return NewSink(tap.add), nil },
	}
	opts := JobOptions{
		RecordsPerSource: 60,
		Stateful:         map[dataflow.OperatorID]bool{"join": true},
	}
	for _, mut := range muts {
		mut(&opts)
	}
	job, err := NewJob(g, base, bigWorkers(3, 6), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// withFusion toggles JobOptions.DisableFusion.
func withFusion(on bool) func(*JobOptions) {
	return func(o *JobOptions) { o.DisableFusion = !on }
}

// fuseOutcome is everything a fused run must reproduce exactly.
type fuseOutcome struct {
	counters  string
	sink      string
	snapshots int64
}

// TestFusionEquivalenceBattery runs every pipeline fused and unfused under
// every transport and demands identical outcomes. Clean cases additionally
// compare the sink record multiset and the snapshot count (barrier
// alignment must complete the same epochs either way); recovery cases
// compare exactly-once accounting through a mid-run worker kill.
func TestFusionEquivalenceBattery(t *testing.T) {
	kill := FaultPlan{KillWorkers: []WorkerKill{{Worker: 1, AtEpoch: 3}}}
	cases := []struct {
		name      string
		clean     bool // compare sink records + snapshot counts
		wantFused bool // the fused run must actually fuse
		build     func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult
	}{
		{"window-clean", true, true, func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult {
			return runJob(t, fusedWinPipeline(t, tap, FaultPlan{}, false, asTransport(tr, 16, 0), withFusion(fused)))
		}},
		{"window-kill-recovery", false, true, func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult {
			return runJob(t, fusedWinPipeline(t, nil, kill, true, asTransport(tr, 16, 0), withFusion(fused)))
		}},
		{"statefulsrc-clean", true, true, func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult {
			return runJob(t, fusedSumPipeline(t, FaultPlan{}, false, asTransport(tr, 16, 0), withFusion(fused)))
		}},
		{"statefulsrc-kill-recovery", false, true, func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult {
			return runJob(t, fusedSumPipeline(t, kill, true, asTransport(tr, 16, 0), withFusion(fused)))
		}},
		{"join-clean", true, true, func(t *testing.T, tap *sinkTap, fused bool, tr string) *JobResult {
			return runJob(t, fusedJoinPipeline(t, tap, asTransport(tr, 16, 0), withFusion(fused)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tr := range TransportNames() {
				t.Run(tr, func(t *testing.T) {
					outcomes := make(map[bool]fuseOutcome)
					for _, fused := range []bool{false, true} {
						tap := &sinkTap{}
						res := tc.build(t, tap, fused, tr)
						out := fuseOutcome{counters: canonicalOutcome(res)}
						if tc.clean {
							out.sink = tap.canon()
							out.snapshots = res.SnapshotsTaken
						}
						outcomes[fused] = out
						snap := res.Metrics.Snapshot()
						if fused && tc.wantFused {
							if snap["engine.fuse.tasks"] == 0 {
								t.Errorf("fused run reports no fused tasks")
							}
							if snap["engine.fuse.records"] == 0 {
								t.Errorf("fused run reports no fused records")
							}
						}
						if !fused {
							if _, ok := snap["engine.fuse.tasks"]; ok {
								t.Errorf("unfused run exports engine.fuse.tasks")
							}
						}
					}
					if outcomes[true].counters != outcomes[false].counters {
						t.Errorf("counters diverge:\nunfused:\n%s\nfused:\n%s",
							outcomes[false].counters, outcomes[true].counters)
					}
					if tc.clean {
						if outcomes[true].sink != outcomes[false].sink {
							t.Errorf("sink records diverge:\nunfused:\n%s\nfused:\n%s",
								outcomes[false].sink, outcomes[true].sink)
						}
						if outcomes[true].snapshots != outcomes[false].snapshots {
							t.Errorf("snapshot counts diverge: unfused %d, fused %d",
								outcomes[false].snapshots, outcomes[true].snapshots)
						}
					}
				})
			}
		})
	}
}

func runJob(t *testing.T, j *Job) *JobResult {
	t.Helper()
	res, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFusionChainAccounting pins the fusion metrics down exactly: the
// window pipeline has two three-operator chains (src=>norm=>win per index),
// so two chains, four goroutine-less member tasks, and every record that
// crossed a fused edge counted.
func TestFusionChainAccounting(t *testing.T) {
	res := runJob(t, fusedWinPipeline(t, nil, FaultPlan{}, false))
	snap := res.Metrics.Snapshot()
	if got := snap["engine.fuse.chains"]; got != 2 {
		t.Errorf("engine.fuse.chains = %v, want 2", got)
	}
	if got := snap["engine.fuse.tasks"]; got != 4 {
		t.Errorf("engine.fuse.tasks = %v, want 4", got)
	}
	// 600 records per source traverse src=>norm and norm=>win on both
	// chains: 2 sources x 600 x 2 fused hops.
	if got := snap["engine.fuse.records"]; got != 2400 {
		t.Errorf("engine.fuse.records = %v, want 2400", got)
	}
}

// TestFusionRequiresColocation: the same Forward topology placed with the
// chain split across workers must not fuse — fusion is a property of
// (graph, plan), not the graph alone.
func TestFusionRequiresColocation(t *testing.T) {
	g := forwardChain(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "fwd", Kind: dataflow.KindMap, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	base := dataflow.NewPlan()
	base.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	base.Assign(dataflow.TaskID{Op: "fwd", Index: 0}, 1) // every hop crosses workers: no fusion
	base.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 0)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				if i >= 50 {
					return Record{}, false
				}
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"fwd":  func(*TaskContext) (any, error) { return NewMap(func(r Record) Record { return r }), nil },
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, base, bigWorkers(2, 4), factories, JobOptions{RecordsPerSource: 50})
	if err != nil {
		t.Fatal(err)
	}
	res := runJob(t, job)
	if _, ok := res.Metrics.Snapshot()["engine.fuse.tasks"]; ok {
		t.Error("split placement fused anyway; fusion must require co-location")
	}
	// fwd=>sink is Forward, same worker, fusion-eligible: placed together it
	// fuses even though src=>fwd cannot.
	base2 := dataflow.NewPlan()
	base2.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	base2.Assign(dataflow.TaskID{Op: "fwd", Index: 0}, 1)
	base2.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 1)
	job2, err := NewJob(g, base2, bigWorkers(2, 4), factories, JobOptions{RecordsPerSource: 50})
	if err != nil {
		t.Fatal(err)
	}
	res2 := runJob(t, job2)
	if got := res2.Metrics.Snapshot()["engine.fuse.tasks"]; got != 1 {
		t.Errorf("engine.fuse.tasks = %v, want 1 (fwd=>sink fuses, src=>fwd crosses workers)", got)
	}
}

// TestHashKeyMatchesFNV pins the routing hash to hash/fnv over the logical
// key (the key up to its first NUL, statebackend.KeyHash): keyed partitioning
// decides which task owns which key's state, so the two must agree byte for
// byte or checkpoint images stop lining up.
func TestHashKeyMatchesFNV(t *testing.T) {
	for k, logical := range map[string]string{
		"": "", "a": "a", "k0": "k0", "k123456": "k123456", "the quick brown fox": "the quick brown fox",
		"\xff\x01": "\xff\x01", "\x00\xff": "", "k\x007": "k",
	} {
		h := fnv.New32a()
		h.Write([]byte(logical))
		for _, n := range []int{1, 3, 7} {
			hashed := &downstreamEdge{inboxes: make([]chan message, n)}
			if got, want := hashed.route(Record{Key: k}), int(h.Sum32()%uint32(n)); k != "" && got != want {
				t.Errorf("route(%q) over %d tasks = %d, fnv of %q says %d", k, n, got, logical, want)
			}
		}
	}
}
