package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/nexmark"
	"capsys/internal/telemetry"
)

// distFixture holds everything shared between the in-memory reference run
// and the distributed cluster run of one query.
type distFixture struct {
	spec   nexmark.QuerySpec
	phys   *dataflow.PhysicalGraph
	espec  engine.ClusterSpec
	plan   *dataflow.Plan
	deploy DeploySpec
}

const (
	distSeed     = 11
	distRecords  = 600
	distSnapshot = 100
	distWorkers  = 3
)

func newDistFixture(t *testing.T, query string) *distFixture {
	t.Helper()
	spec, err := nexmark.ByName(query)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := dataflow.Expand(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Slots sized so two survivors can host the whole graph after a death.
	slots := phys.NumTasks()/(distWorkers-1) + 1
	c, err := cluster.Homogeneous(distWorkers, slots, 8, 500e6, 2e9)
	if err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlanSized(phys.NumTasks())
	for i, task := range phys.Tasks() {
		plan.Assign(task, i%distWorkers)
	}
	espec := EngineCluster(c)
	assign, err := AssignmentsOf(phys, plan)
	if err != nil {
		t.Fatal(err)
	}
	return &distFixture{
		spec:  spec,
		phys:  phys,
		espec: espec,
		plan:  plan,
		deploy: DeploySpec{
			Query:            query,
			Seed:             distSeed,
			RecordsPerSource: distRecords,
			SnapshotInterval: distSnapshot,
			Workers:          espec.Workers,
			Assign:           assign,
		},
	}
}

// deployOn returns the fixture's deploy spec re-placed round-robin over the
// first n workers with the given slots each — a plan a cluster of n joined
// processes can actually run. The spec keeps listing every worker: the
// coordinator must hold plans to the ones that joined.
func (f *distFixture) deployOn(n, slots int) DeploySpec {
	d := f.deploy
	d.Workers = append([]engine.WorkerSpec(nil), f.deploy.Workers...)
	for i := range d.Workers {
		d.Workers[i].Slots = slots
	}
	d.Assign = append([]TaskAssignment(nil), f.deploy.Assign...)
	for i := range d.Assign {
		d.Assign[i].Worker = i % n
	}
	return d
}

// referenceResult runs the same job in-process on the given transport —
// batched is the golden the distributed cluster must reproduce.
func (f *distFixture) referenceResult(t *testing.T, transport string) *engine.JobResult {
	t.Helper()
	binding, err := nexmark.BindEngine(f.spec, distSeed)
	if err != nil {
		t.Fatal(err)
	}
	job, err := engine.NewJob(f.spec.Graph, f.plan, f.espec, binding.Factories, engine.JobOptions{
		RecordsPerSource: distRecords,
		SnapshotInterval: distSnapshot,
		Transport:        transport,
		Stateful:         binding.Stateful,
		PerRecordCPU:     binding.PerRecordCPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// distCluster launches a coordinator plus distWorkers in-process joiners
// (each its own control connection, data plane over loopback TCP) and
// returns the coordinator and a per-worker cancel.
type distCluster struct {
	co     *Coordinator
	cancel []context.CancelFunc
	errs   []chan error
}

func startDistCluster(t *testing.T, ctx context.Context, fx *distFixture, opts CoordinatorOptions) *distCluster {
	t.Helper()
	co, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, opts)
	if err != nil {
		t.Fatal(err)
	}
	return joinDistWorkers(t, ctx, co, distWorkers, nil)
}

// joinDistWorkers joins n in-process workers to co and waits for the
// cluster to be complete. Every worker's jobs attach hub (nil: none).
func joinDistWorkers(t *testing.T, ctx context.Context, co *Coordinator, n int, hub *telemetry.Telemetry) *distCluster {
	t.Helper()
	dc := &distCluster{co: co}
	for w := 0; w < n; w++ {
		wctx, cancel := context.WithCancel(ctx)
		dc.cancel = append(dc.cancel, cancel)
		errc := make(chan error, 1)
		dc.errs = append(dc.errs, errc)
		go func() {
			errc <- JoinCluster(wctx, co.Addr(), NexmarkBuilderWith(hub), JoinOptions{
				HeartbeatEvery: 50 * time.Millisecond,
			})
		}()
	}
	if err := co.WaitJoined(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Shutdown()
		for _, cancel := range dc.cancel {
			cancel()
		}
		for _, errc := range dc.errs {
			<-errc
		}
	})
	return dc
}

// TestDistClusterMatchesInMemory runs a 3-process-style cluster (separate
// control connections and TCP data plane, all in one test process) and
// requires the sink outcome to be byte-identical to the in-memory batched
// reference — the cross-process leg of the equivalence battery.
func TestDistClusterMatchesInMemory(t *testing.T) {
	for _, query := range []string{"Q3-inf", "Q2-join"} {
		t.Run(query, func(t *testing.T) {
			fx := newDistFixture(t, query)
			want := fx.referenceResult(t, engine.TransportBatched)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dc := startDistCluster(t, ctx, fx, CoordinatorOptions{
				HeartbeatTimeout: 5 * time.Second,
			})
			res, err := dc.co.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.SinkRecords != want.SinkRecords {
				t.Errorf("sink records = %d, in-memory reference = %d", res.SinkRecords, want.SinkRecords)
			}
			if res.SourceRecords != want.SourceRecords {
				t.Errorf("source records = %d, in-memory reference = %d", res.SourceRecords, want.SourceRecords)
			}
			if res.LostRecords != 0 {
				t.Errorf("lost %d records on a clean run", res.LostRecords)
			}
			if res.Recoveries != 0 || res.Failed {
				t.Errorf("clean run reported recoveries=%d failed=%v", res.Recoveries, res.Failed)
			}
			if res.SnapshotsTaken != want.SnapshotsTaken {
				t.Errorf("snapshots taken = %d, in-memory reference = %d", res.SnapshotsTaken, want.SnapshotsTaken)
			}
			// Per-task counters must agree task by task, not just in sum.
			for id, ts := range want.Tasks {
				got, ok := res.Tasks[id]
				if !ok {
					t.Errorf("task %v missing from distributed result", id)
					continue
				}
				if got.RecordsIn != ts.RecordsIn || got.RecordsOut != ts.RecordsOut {
					t.Errorf("task %v: records in/out = %d/%d, in-memory = %d/%d",
						id, got.RecordsIn, got.RecordsOut, ts.RecordsIn, ts.RecordsOut)
				}
			}
			snap := res.Metrics.Snapshot()
			if snap["net.data_batches"] <= 0 {
				t.Errorf("net.data_batches = %v, want > 0 (cluster must use the wire)", snap["net.data_batches"])
			}
			if snap["net.credit_frames"] <= 0 {
				t.Errorf("net.credit_frames = %v, want > 0 (wire flow control must engage)", snap["net.credit_frames"])
			}
			// The coordinator assembles its result from named snapshots in
			// worker reports, the in-process network run from its one
			// attempt's: both must export the same exchange.* and net.* series
			// and have flushed the same records through the exchange.
			local := fx.referenceResult(t, engine.TransportNetwork).Metrics.Snapshot()
			series := func(snap map[string]float64) (names []string) {
				for n := range snap {
					if strings.HasPrefix(n, "net.") || strings.HasPrefix(n, "exchange.") {
						names = append(names, n)
					}
				}
				sort.Strings(names)
				return names
			}
			if got, want := series(snap), series(local); !reflect.DeepEqual(got, want) {
				t.Errorf("coordinator run exports %v,\nin-process network run %v", got, want)
			}
			if got, want := snap["exchange.batch_records"], local["exchange.batch_records"]; got != want || got <= 0 {
				t.Errorf("exchange.batch_records = %v, in-process network run = %v", got, want)
			}
		})
	}
}

// TestDistSourceRate: DEPLOY carries the source throttle, so a coordinator's
// run of a rate-limited job is paced on every worker: it takes at least the
// time each source task needs to emit its records at its share of the rate.
// Operator CPU is scaled down so the unthrottled run takes a fraction of that.
func TestDistSourceRate(t *testing.T) {
	perTask := 1200.0 // records/s per source task: 600 records take ≈ 0.5 s
	fx := newDistFixture(t, "Q3-inf")
	fx.deploy.CPUCostScale = 0.01
	fx.deploy.SourceRate = map[dataflow.OperatorID]float64{}
	var sourceTasks int64
	for _, src := range fx.spec.Graph.Sources() {
		fx.deploy.SourceRate[src.ID] = perTask * float64(src.Parallelism)
		sourceTasks += int64(src.Parallelism)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dc := startDistCluster(t, ctx, fx, CoordinatorOptions{HeartbeatTimeout: 5 * time.Second})
	res, err := dc.co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A source task's last record is due (records-1)/rate after its first.
	if min := time.Duration((distRecords - 1) / perTask * float64(time.Second)); res.Elapsed < min {
		t.Errorf("throttled run took %v, want at least %v", res.Elapsed, min)
	}
	if want := sourceTasks * distRecords; res.SourceRecords != want {
		t.Errorf("source records = %d, want %d", res.SourceRecords, want)
	}
}

// TestDistResultSeriesMatchInProcess: a JobResult is assembled from worker
// reports alone in both executors, so an in-process run on the network
// transport and a coordinator with three joined workers export the same set
// of series — keyed-state sizes, their totals and worker saturation
// included — and agree on every task's final keyed-state size and on its
// CPU, IO and Net meter draws (token counts, not timings).
func TestDistResultSeriesMatchInProcess(t *testing.T) {
	for _, c := range []struct {
		query    string
		stateful bool
	}{{"Q1-sliding", true}, {"Q2-join", true}, {"Q3-inf", false}} {
		t.Run(c.query, func(t *testing.T) {
			fx := newDistFixture(t, c.query)
			local := fx.referenceResult(t, engine.TransportNetwork)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dc := startDistCluster(t, ctx, fx, CoordinatorOptions{HeartbeatTimeout: 5 * time.Second})
			res, err := dc.co.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Metrics.Names(), local.Metrics.Names(); !reflect.DeepEqual(got, want) {
				t.Errorf("coordinator run exports %d series, in-process run %d:\ncoordinator: %v\nin-process:  %v", len(got), len(want), got, want)
			}
			snap, lsnap := res.Metrics.Snapshot(), local.Metrics.Snapshot()
			stateful, drawn := 0, 0.0
			for id, want := range local.Tasks {
				got := res.Tasks[id]
				drawn += want.CPUDraw * want.NetDraw
				if got.Stateful != want.Stateful || got.StateBytes != want.StateBytes || got.StateKeys != want.StateKeys {
					t.Errorf("task %v state: coordinator %v/%d B/%d keys, in-process %v/%d B/%d keys",
						id, got.Stateful, got.StateBytes, got.StateKeys, want.Stateful, want.StateBytes, want.StateKeys)
				}
				if got.CPUDraw != want.CPUDraw || got.IODraw != want.IODraw || got.NetDraw != want.NetDraw {
					t.Errorf("task %v draws cpu/io/net: coordinator %v/%v/%v, in-process %v/%v/%v",
						id, got.CPUDraw, got.IODraw, got.NetDraw, want.CPUDraw, want.IODraw, want.NetDraw)
				}
				if !want.Stateful {
					continue
				}
				stateful++
				for _, m := range []string{"state_keys", "state_bytes"} {
					name := metrics.TaskMetricName(string(id.Op), id.Index, m)
					if snap[name] != lsnap[name] {
						t.Errorf("%s: coordinator %v, in-process %v", name, snap[name], lsnap[name])
					}
				}
			}
			if (stateful > 0) != c.stateful {
				t.Errorf("%d stateful tasks reported, want stateful=%v", stateful, c.stateful)
			}
			if drawn == 0 {
				t.Error("no task drew both CPU and Net tokens: the draw comparison is vacuous")
			}
		})
	}
}

// TestDistSharedHubCountsOnce joins three in-process workers whose jobs share
// one telemetry hub: each attempt counts in cells it owns, so the result
// counts every batched record once, as a run without a hub does, while the
// shared hub still sees every worker's records.
func TestDistSharedHubCountsOnce(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	want := fx.referenceResult(t, engine.TransportNetwork).Metrics.Snapshot()["exchange.batch_records"]
	hub := telemetry.New()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	co, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, CoordinatorOptions{HeartbeatTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	res, err := joinDistWorkers(t, ctx, co, distWorkers, hub).co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Metrics.Snapshot()["exchange.batch_records"]
	if got != want || got <= 0 {
		t.Errorf("exchange.batch_records = %v with a shared hub, %v without a hub", got, want)
	}
	if h := hub.Registry().Snapshot()["exchange.batch_records"]; h != got {
		t.Errorf("the shared hub's exchange.batch_records = %v, the result's %v", h, got)
	}
}

// TestDistClusterKillRecovery kills one worker's control loop after the
// first complete checkpoint; the coordinator must abort the survivors,
// re-place the dead worker's tasks, restart from the checkpoint, and still
// land on the in-memory sink outcome.
func TestDistClusterKillRecovery(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	want := fx.referenceResult(t, engine.TransportBatched)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	checkpointed := make(chan int64, 16)
	var logMu sync.Mutex
	var logs []string
	opts := CoordinatorOptions{
		// Short timeout: the killed worker's connection closes promptly via
		// its context watcher, but keep the heartbeat net tight anyway.
		HeartbeatTimeout: 2 * time.Second,
		StopTimeout:      30 * time.Second,
		Replan: func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			deadSet := make(map[int]bool, len(ev.DeadWorkers))
			for _, w := range ev.DeadWorkers {
				deadSet[w] = true
			}
			var survivors []int
			for w := 0; w < distWorkers; w++ {
				if !deadSet[w] {
					survivors = append(survivors, w)
				}
			}
			if len(survivors) == 0 {
				return nil, fmt.Errorf("no survivors")
			}
			next := dataflow.NewPlanSized(len(fx.deploy.Assign))
			moved := 0
			for _, a := range fx.deploy.Assign {
				if deadSet[a.Worker] {
					a.Worker = survivors[moved%len(survivors)]
					moved++
				}
				next.Assign(a.Task, a.Worker)
			}
			return next, nil
		},
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			logMu.Lock()
			logs = append(logs, line)
			logMu.Unlock()
			var epoch int64
			if n, _ := fmt.Sscanf(line, "checkpoint: epoch %d complete", &epoch); n == 1 {
				select {
				case checkpointed <- epoch:
				default:
				}
			}
		},
	}
	dc := startDistCluster(t, ctx, fx, opts)

	// Kill one joiner once the first epoch is durably checkpointed, so the
	// restart provably resumes from a snapshot rather than from scratch.
	// Worker indices are handed out in TCP join order, so goroutine 1 may
	// have been welcomed under any index — assertions below are
	// victim-agnostic.
	go func() {
		select {
		case <-checkpointed:
			dc.cancel[1]()
		case <-ctx.Done():
		}
	}()

	res, err := dc.co.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		logMu.Lock()
		t.Fatalf("recoveries = %d, want 1; coordinator log:\n  %s",
			res.Recoveries, strings.Join(logs, "\n  "))
	}
	if res.RestoredEpoch < 1 {
		t.Errorf("restored epoch = %d, want >= 1 (restart must come from a checkpoint)", res.RestoredEpoch)
	}
	if res.SinkRecords != want.SinkRecords {
		t.Errorf("sink records after recovery = %d, in-memory reference = %d", res.SinkRecords, want.SinkRecords)
	}
	if res.SourceRecords != want.SourceRecords {
		t.Errorf("source records after recovery = %d, in-memory reference = %d", res.SourceRecords, want.SourceRecords)
	}
	if res.LostRecords != 0 {
		t.Errorf("recovered run lost %d records", res.LostRecords)
	}
	if res.Failed {
		t.Error("recovered run reported Failed")
	}
	if len(res.Faults) != 1 || !res.Faults[0].Recovered ||
		res.Faults[0].Worker < 0 || res.Faults[0].Worker >= distWorkers {
		t.Errorf("faults = %+v, want one recovered kill of a cluster worker", res.Faults)
	}
	if res.Downtime <= 0 {
		t.Error("recovery must account downtime")
	}
	snap := res.Metrics.Snapshot()
	if snap["job.recoveries"] != 1 {
		t.Errorf("job.recoveries = %v, want 1", snap["job.recoveries"])
	}
	// The dead worker's tasks must have moved onto survivors and produced.
	if res.SinkRecords == 0 {
		t.Error("no sink records after recovery")
	}
}

// fakeDistWorker speaks the control-plane frame protocol by hand, letting
// tests script exact worker behavior the engine would never produce on its
// own (a PEERDOWN against a live peer, scripted abort acknowledgements).
type fakeDistWorker struct {
	t  *testing.T
	c  net.Conn
	w  *connWriter
	id int
}

func joinFakeWorker(t *testing.T, addr string) *fakeDistWorker {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fw := &fakeDistWorker{t: t, c: c, w: &connWriter{c: c}}
	if err := fw.w.send(engine.FrameHello, wireJoin{Proto: distProtoVersion}); err != nil {
		t.Fatal(err)
	}
	f := fw.read()
	if f.Type != engine.FrameWelcome {
		t.Fatalf("expected WELCOME, got frame type %d", f.Type)
	}
	var wel wireWelcome
	if err := engine.DecodePayload(f.Payload, &wel); err != nil {
		t.Fatal(err)
	}
	fw.id = wel.Worker
	return fw
}

func (f *fakeDistWorker) read() engine.Frame {
	f.t.Helper()
	f.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, err := engine.ReadFrame(f.c)
	if err != nil {
		f.t.Fatalf("fake worker %d read: %v", f.id, err)
	}
	return fr
}

// expect reads one frame and requires the given type.
func (f *fakeDistWorker) expect(typ byte) engine.Frame {
	f.t.Helper()
	fr := f.read()
	if fr.Type != typ {
		f.t.Fatalf("fake worker %d: expected frame type %d, got %d", f.id, typ, fr.Type)
	}
	return fr
}

// expectDeploy reads a DEPLOY, checks its attempt number, and answers READY.
func (f *fakeDistWorker) expectDeployReady(attempt int) {
	f.t.Helper()
	fr := f.expect(engine.FrameDeploy)
	var spec DeploySpec
	if err := engine.DecodePayload(fr.Payload, &spec); err != nil {
		f.t.Fatal(err)
	}
	if spec.Attempt != attempt {
		f.t.Fatalf("fake worker %d: DEPLOY attempt = %d, want %d", f.id, spec.Attempt, attempt)
	}
	if err := f.w.send(engine.FrameReady, wireReady{Attempt: attempt, Addr: fmt.Sprintf("127.0.0.1:%d", 40000+f.id)}); err != nil {
		f.t.Fatal(err)
	}
}

// TestDistPeerDownRestartsAttempt is the data-plane failure-detection
// regression: a worker reports a peer unreachable while that peer is still
// control-plane live (heartbeating). The coordinator must act — abort the
// attempt and redeploy every worker from the last complete epoch — rather
// than log an advisory line and leave the job hung forever.
func TestDistPeerDownRestartsAttempt(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	co, err := NewCoordinator("127.0.0.1:0", fx.deployOn(2, len(fx.deploy.Assign)), 2, CoordinatorOptions{
		HeartbeatTimeout: 30 * time.Second,
		StopTimeout:      10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	joined := make(chan error, 1)
	go func() { joined <- co.WaitJoined(ctx) }()
	fw0 := joinFakeWorker(t, co.Addr())
	fw1 := joinFakeWorker(t, co.Addr())
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	fakes := []*fakeDistWorker{fw0, fw1}

	type runOut struct {
		res *engine.JobResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := co.Run(ctx)
		done <- runOut{res, err}
	}()

	for _, fw := range fakes {
		fw.expectDeployReady(1)
	}
	for _, fw := range fakes {
		fw.expect(engine.FrameStart)
	}
	// Data-plane-only failure: fw0 cannot reach fw1, but fw1's control
	// connection is perfectly healthy.
	if err := fw0.w.send(engine.FramePeerDown, wirePeer{Attempt: 1, Peer: fw1.id}); err != nil {
		t.Fatal(err)
	}
	// The coordinator must abort BOTH workers and collect their progress.
	for _, fw := range fakes {
		fw.expect(engine.FrameAbort)
		if err := fw.w.send(engine.FrameStopped, &engine.WorkerReport{Worker: fw.id, Attempt: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// ... then redeploy attempt 2 to every worker — nobody was declared dead.
	for _, fw := range fakes {
		fw.expectDeployReady(2)
	}
	for _, fw := range fakes {
		fw.expect(engine.FrameStart)
	}
	for _, fw := range fakes {
		if err := fw.w.send(engine.FrameDone, &engine.WorkerReport{Worker: fw.id, Attempt: 2, Completed: true}); err != nil {
			t.Fatal(err)
		}
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", out.res.Recoveries)
	}
	if out.res.Downtime <= 0 {
		t.Error("data-plane restart must account downtime")
	}
	if len(out.res.Faults) != 0 {
		t.Errorf("faults = %+v, want none (no worker died)", out.res.Faults)
	}
}

// TestDistPeerDownEscalatesAfterBudget: once the data-plane restart budget
// is exhausted, a PEERDOWN against a still-live peer escalates to the
// ordinary dead-worker recovery — the accused peer is dropped and its tasks
// re-placed — instead of restarting forever.
func TestDistPeerDownEscalatesAfterBudget(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	// The Replan below packs every task onto the one survivor, so that worker
	// needs the slots for it: re-placements are capacity-checked.
	deploy := fx.deployOn(2, len(fx.deploy.Assign))
	var replanMu sync.Mutex
	var replanDead []int
	co, err := NewCoordinator("127.0.0.1:0", deploy, 2, CoordinatorOptions{
		HeartbeatTimeout: 30 * time.Second,
		StopTimeout:      10 * time.Second,
		Replan: func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			replanMu.Lock()
			replanDead = append([]int(nil), ev.DeadWorkers...)
			replanMu.Unlock()
			next := dataflow.NewPlan()
			for _, a := range deploy.Assign {
				next.Assign(a.Task, 1-ev.DeadWorkers[0]) // two-process cluster
			}
			return next, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	co.dpRestarts = maxDataPlaneRestarts // budget already spent

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	joined := make(chan error, 1)
	go func() { joined <- co.WaitJoined(ctx) }()
	fw0 := joinFakeWorker(t, co.Addr())
	fw1 := joinFakeWorker(t, co.Addr())
	if err := <-joined; err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		res *engine.JobResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := co.Run(ctx)
		done <- runOut{res, err}
	}()

	for _, fw := range []*fakeDistWorker{fw0, fw1} {
		fw.expectDeployReady(1)
	}
	for _, fw := range []*fakeDistWorker{fw0, fw1} {
		fw.expect(engine.FrameStart)
	}
	if err := fw0.w.send(engine.FramePeerDown, wirePeer{Attempt: 1, Peer: fw1.id}); err != nil {
		t.Fatal(err)
	}
	// Escalation: fw1 is declared dead (conn closed, no abort for it); the
	// survivor is aborted and redeployed with fw1's tasks re-placed.
	fw0.expect(engine.FrameAbort)
	if err := fw0.w.send(engine.FrameStopped, &engine.WorkerReport{Worker: fw0.id, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	fw0.expectDeployReady(2)
	fw0.expect(engine.FrameStart)
	if err := fw0.w.send(engine.FrameDone, &engine.WorkerReport{Worker: fw0.id, Attempt: 2, Completed: true}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	replanMu.Lock()
	defer replanMu.Unlock()
	if len(replanDead) != 1 || replanDead[0] != fw1.id {
		t.Errorf("Replan dead = %v, want [%d]", replanDead, fw1.id)
	}
	if len(out.res.Faults) != 1 || out.res.Faults[0].Worker != fw1.id {
		t.Errorf("faults = %+v, want one kill of worker %d", out.res.Faults, fw1.id)
	}
}

// TestDistBadNameInDoneReport: a worker's DONE report is relayed input, so a
// series name in it that fails the name check ends the run on the bad-DONE
// error path instead of panicking the coordinator in assembleResult.
func TestDistBadNameInDoneReport(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	for what, rep := range map[string]*engine.WorkerReport{
		"counter": {Metrics: metrics.TypedValues{Counters: map[string]int64{"Net.Frames": 1}}},
		"time":    {Metrics: metrics.TypedValues{Times: map[string]time.Duration{"busy seconds": 1}}},
		"gauge":   {Metrics: metrics.TypedValues{Gauges: map[string]float64{"worker.w0.CPU": 1}}},
		"task":    {Tasks: map[dataflow.TaskID]engine.TaskStats{{Op: "win", Index: -1}: {}}},
	} {
		t.Run(what, func(t *testing.T) {
			co, err := NewCoordinator("127.0.0.1:0", fx.deployOn(2, len(fx.deploy.Assign)), 2, CoordinatorOptions{
				HeartbeatTimeout: 30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Shutdown()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			joined := make(chan error, 1)
			go func() { joined <- co.WaitJoined(ctx) }()
			fakes := []*fakeDistWorker{joinFakeWorker(t, co.Addr()), joinFakeWorker(t, co.Addr())}
			if err := <-joined; err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := co.Run(ctx)
				done <- err
			}()
			for _, fw := range fakes {
				fw.expectDeployReady(1)
			}
			for _, fw := range fakes {
				fw.expect(engine.FrameStart)
			}
			rep.Worker, rep.Attempt, rep.Completed = fakes[0].id, 1, true
			if err := fakes[0].w.send(engine.FrameDone, rep); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err == nil || !strings.Contains(err.Error(), "bad DONE") {
				t.Fatalf("run ended with %v, want a bad DONE error", err)
			}
		})
	}
}

// TestWirePayloadRoundTrip pins that every control-plane payload survives
// its plane's one codec unchanged — JSON for every control body, the
// hand-laid layout for SNAPSHOT: the frames speak dataflow.TaskID,
// engine.TaskSnapshot, engine.TaskStats and named metric snapshots directly,
// with no wire-only mirror in between to drift. The one exception is the
// trace events a heartbeat carries: JSON turns an integer attr into a
// float64, so those are compared in the form the timeline is written in,
// their JSONL bytes.
func TestWirePayloadRoundTrip(t *testing.T) {
	win0, win1 := dataflow.TaskID{Op: "win", Index: 0}, dataflow.TaskID{Op: "win", Index: 1}
	snap := &engine.TaskSnapshot{
		Task: win1, Epoch: 3, RecordsIn: 300, RecordsOut: 120, BytesOut: 9600, SrcOffset: 7,
		RR: []int{2, 0}, OpState: []byte("op"), NSState: []byte(`{"groups":[{"g":1}]}`),
	}
	wait, err := telemetry.NewHistogram(telemetry.DefaultLatencyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wait.Observe(0.002)
	wait.Observe(0.040)
	hb := &wireHeartbeat{
		Stats: &wireStats{
			TypedValues: metrics.TypedValues{
				Counters: map[string]int64{"net.frames_sent": 3},
				Gauges:   map[string]float64{"queue.depth": 4},
				Times:    map[string]time.Duration{"exchange.credit_stall_seconds": time.Millisecond},
			},
			FnGauges: []telemetry.GaugeSample{{Family: "worker_saturation", Labels: map[string]string{"resource": "cpu"}, Value: 0.25}},
			Hists:    map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": wait.Snapshot()},
		},
		Events: []telemetry.Event{
			{Schema: 1, Seq: 4, Src: "w1", WSeq: 4, TMS: 12.5, Kind: telemetry.EventJobComplete, Attempt: 2,
				Attrs: map[string]any{"sink_records": 1600, "reprocessed": int64(7), "downtime_ms": 1.25, "transport": "network", "completed": true}},
			{Seq: 5, Src: "w1", WSeq: 5, Kind: telemetry.EventCheckpointStart, Task: "win[1]", Epoch: 3},
		},
		Dropped: 2,
	}
	payloads := []any{
		&wireJoin{Proto: distProtoVersion},
		&wireWelcome{Worker: 2},
		&DeploySpec{
			Query: "Q1-sliding", Seed: 5, RecordsPerSource: 800, SnapshotInterval: 100, ChannelCapacity: 64,
			BatchSize: 32, BatchLinger: time.Millisecond, DisableFusion: true, CPUCostScale: 0.5, KeyGroups: 128,
			SourceRate: map[dataflow.OperatorID]float64{"source": 2500},
			Workers:    []engine.WorkerSpec{{ID: "w0", Slots: 4, Cores: 2, IOBps: 1e6, NetBps: 1e9}},
			Assign:     []TaskAssignment{{Task: win0, Worker: 0}, {Task: win1, Worker: 1}, {Task: dataflow.TaskID{Op: "Q[1]", Index: 3}, Worker: 1}},
			Attempt:    2, Local: 1, RestoreEpoch: 3,
		},
		&wireReady{Attempt: 2, Addr: "127.0.0.1:4100"},
		&wireStart{Attempt: 2, Peers: map[int]string{0: "127.0.0.1:4100", 1: "127.0.0.1:4101"}},
		&wireEpoch{Attempt: 2, Epoch: 3},
		&wirePeer{Attempt: 2, Peer: 1},
		&engine.WorkerReport{
			Worker: 1, Attempt: 2, Completed: true,
			Tasks: map[dataflow.TaskID]engine.TaskStats{
				win1: {Worker: 1, RecordsIn: 300, RecordsOut: 120, BytesOut: 9600,
					BusyTime: 3 * time.Millisecond, BackpressureT: time.Millisecond, Sink: true,
					Stateful: true, StateBytes: 4096, StateKeys: 17, CPUDraw: 0.125, IODraw: 4096, NetDraw: 9600},
			},
			Metrics: metrics.TypedValues{
				Counters: map[string]int64{"net.frames_sent": 40, "exchange.batches": 12},
				Gauges:   map[string]float64{"worker.w1.io_saturation": 0.5},
				Times:    map[string]time.Duration{"exchange.credit_stall_seconds": 5 * time.Millisecond},
			},
			Hists: map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": wait.Snapshot()},
		},
		&wireHeartbeat{Stats: hb.Stats, Dropped: hb.Dropped},
	}
	for _, in := range payloads {
		buf, err := engine.EncodePayload(in)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in).Elem()).Interface()
		if err := engine.DecodePayload(buf, out); err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%T changed in transit:\n sent %+v\n got  %+v", in, in, out)
		}
	}
	buf, err := engine.EncodePayload(hb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeHeartbeat(buf, "w1")
	if err != nil {
		t.Fatal(err)
	}
	jsonl := func(evs []telemetry.Event) string {
		var b strings.Builder
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		return b.String()
	}
	if !reflect.DeepEqual(got.Stats, hb.Stats) || got.Dropped != hb.Dropped || jsonl(got.Events) != jsonl(hb.Events) {
		t.Errorf("heartbeat changed in transit:\n sent %+v\n%s got  %+v\n%s", hb.Stats, jsonl(hb.Events), got.Stats, jsonl(got.Events))
	}
	// SNAPSHOT keeps nil and empty slices apart, and an image just under
	// the frame cap still ships.
	near := make([]byte, engine.MaxFramePayload-64)
	for i := range near {
		near[i] = byte(i * 7)
	}
	for i, s := range []*engine.TaskSnapshot{
		snap,
		{Task: win0},
		{Task: win0, RR: []int{}, OpState: []byte{}, NSState: []byte{}},
		{Task: win1, Epoch: -1, RecordsIn: math.MaxInt64, SrcOffset: math.MinInt64, RR: []int{-1, math.MaxInt}, NSState: near},
	} {
		var buf bytes.Buffer
		if err := engine.WriteSnapshotFrame(&buf, 2, s); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		frame := buf.Bytes()
		f, n, err := engine.DecodeFrame(frame)
		if err != nil || n != len(frame) || f.Type != engine.FrameSnapshot {
			t.Fatalf("snapshot %d: frame of %d bytes decoded as type %d over %d bytes: %v", i, len(frame), f.Type, n, err)
		}
		attempt, got, err := engine.DecodeSnapshot(f.Payload)
		if err != nil || attempt != 2 {
			t.Fatalf("snapshot %d: attempt %d, %v", i, attempt, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("snapshot %d changed in transit: got %+v RR %v OpState %v NSState %d bytes, sent %+v RR %v OpState %v NSState %d bytes",
				i, got.Task, got.RR, got.OpState, len(got.NSState), s.Task, s.RR, s.OpState, len(s.NSState))
		}
	}
	var over bytes.Buffer
	if err := engine.WriteSnapshotFrame(&over, 2, &engine.TaskSnapshot{Task: win0, NSState: make([]byte, engine.MaxFramePayload)}); err == nil || over.Len() > 0 {
		t.Errorf("a SNAPSHOT over the frame cap: %v, %d bytes written", err, over.Len())
	}
}

// bigImageOp passes records through and snapshots an operator image one
// byte over the frame cap.
type bigImageOp struct{}

func (bigImageOp) Open(*engine.TaskContext) error { return nil }
func (bigImageOp) Process(r engine.Record, _ int, emit engine.Emit) error {
	emit(r)
	return nil
}
func (bigImageOp) Close(engine.Emit) error        { return nil }
func (bigImageOp) SnapshotState() ([]byte, error) { return make([]byte, engine.MaxFramePayload+1), nil }
func (bigImageOp) RestoreState([]byte) error      { return nil }

// TestDistOversizedSnapshotFailsTask: a task image too large for a SNAPSHOT
// frame cannot reach the coordinator, and no epoch would ever complete
// without it. The task fails with an error naming it and the payload size,
// as an operator error fails it, and the run fails instead of running on
// without checkpoints.
func TestDistOversizedSnapshotFailsTask(t *testing.T) {
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "big", Kind: dataflow.KindMap, Parallelism: 1, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{{From: "src", To: "big"}, {From: "big", To: "sink"}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlan()
	plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "big", Index: 0}, 1)
	plan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 0)
	assign, err := AssignmentsOf(phys, plan)
	if err != nil {
		t.Fatal(err)
	}
	worker := engine.WorkerSpec{Slots: 4, Cores: 4, IOBps: 1e9, NetBps: 1e9}
	w0, w1 := worker, worker
	w0.ID, w1.ID = "w0", "w1"
	deploy := DeploySpec{Query: "big-image", RecordsPerSource: 50, SnapshotInterval: 10, Workers: []engine.WorkerSpec{w0, w1}, Assign: assign}
	build := func(spec DeploySpec) (*engine.Job, error) {
		factories := map[dataflow.OperatorID]engine.Factory{
			"src": func(*engine.TaskContext) (any, error) {
				return engine.NewSource(func(_, i int64) (engine.Record, bool) {
					return engine.Record{Key: fmt.Sprint(i), Value: i, Time: i}, true
				}), nil
			},
			"big":  func(*engine.TaskContext) (any, error) { return bigImageOp{}, nil },
			"sink": func(*engine.TaskContext) (any, error) { return engine.NewSink(nil), nil },
		}
		return engine.NewJob(g, spec.Plan(), engine.ClusterSpec{Workers: spec.Workers}, factories, spec.jobOptions())
	}

	co, err := NewCoordinator("127.0.0.1:0", deploy, 2, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- JoinCluster(ctx, co.Addr(), build, JoinOptions{HeartbeatEvery: 50 * time.Millisecond}) }()
	}
	if err := co.WaitJoined(ctx); err != nil {
		t.Fatal(err)
	}
	_, runErr := co.Run(ctx)
	co.Shutdown()
	cancel()
	if runErr == nil {
		t.Fatal("a run whose task cannot ship its snapshot succeeded")
	}
	size := regexp.MustCompile(`engine: task big\[0\]: checkpoint epoch 1: engine: SNAPSHOT payload of (\d+) bytes exceeds`)
	var taskErr error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && size.MatchString(err.Error()) {
			taskErr = err
		}
	}
	if taskErr == nil {
		t.Fatalf("no worker failed naming the task and its snapshot size (run: %v)", runErr)
	}
	if n, _ := strconv.Atoi(size.FindStringSubmatch(taskErr.Error())[1]); n <= engine.MaxFramePayload {
		t.Errorf("refused a %d-byte SNAPSHOT payload, under the %d-byte cap: %v", n, engine.MaxFramePayload, taskErr)
	}
}

// heavyStateOp passes records through and holds an operator image of
// heavyImage bytes, each its task index + 1; restoring checks every byte, so
// a restore set that did not arrive whole fails the attempt.
type heavyStateOp struct {
	fill     byte
	restored *atomic.Int64
}

const heavyImage = engine.MaxFramePayload/2 + 64<<10

func (heavyStateOp) Open(*engine.TaskContext) error { return nil }
func (heavyStateOp) Process(r engine.Record, _ int, emit engine.Emit) error {
	emit(r)
	return nil
}
func (heavyStateOp) Close(engine.Emit) error { return nil }
func (o heavyStateOp) SnapshotState() ([]byte, error) {
	return bytes.Repeat([]byte{o.fill}, heavyImage), nil
}
func (o heavyStateOp) RestoreState(img []byte) error {
	if len(img) != heavyImage || bytes.Count(img, []byte{o.fill}) != heavyImage {
		return fmt.Errorf("restored a %d-byte image that is not task %d's", len(img), o.fill-1)
	}
	o.restored.Add(1)
	return nil
}

// TestDistRestoreOverFrameCap: a worker whose tasks each checkpoint under the
// frame cap but together hold more than it must still be recoverable. Two
// heavy tasks share a worker, so whichever worker is killed after the first
// complete epoch, one survivor is redeployed with both images — more than
// MaxFramePayload of restore state, each image sent as its own SNAPSHOT
// frame — and the job finishes with nothing lost and the sink of a run
// without faults.
func TestDistRestoreOverFrameCap(t *testing.T) {
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "heavy", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []dataflow.Edge{{From: "src", To: "heavy"}, {From: "heavy", To: "sink"}} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	phys, err := dataflow.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlan()
	plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "heavy", Index: 0}, 1)
	plan.Assign(dataflow.TaskID{Op: "heavy", Index: 1}, 1)
	assign, err := AssignmentsOf(phys, plan)
	if err != nil {
		t.Fatal(err)
	}
	worker := engine.WorkerSpec{Slots: 4, Cores: 4, IOBps: 1e9, NetBps: 1e9}
	w0, w1 := worker, worker
	w0.ID, w1.ID = "w0", "w1"
	deploy := DeploySpec{Query: "heavy-state", RecordsPerSource: 3000, SnapshotInterval: 500, Workers: []engine.WorkerSpec{w0, w1}, Assign: assign}
	var restored atomic.Int64
	factories := map[dataflow.OperatorID]engine.Factory{
		"src": func(*engine.TaskContext) (any, error) {
			return engine.NewSource(func(_, i int64) (engine.Record, bool) {
				return engine.Record{Key: fmt.Sprint(i), Value: i, Time: i}, true
			}), nil
		},
		"heavy": func(tc *engine.TaskContext) (any, error) {
			return heavyStateOp{fill: byte(tc.Index + 1), restored: &restored}, nil
		},
		"sink": func(*engine.TaskContext) (any, error) { return engine.NewSink(nil), nil },
	}
	build := func(spec DeploySpec) (*engine.Job, error) {
		opts := spec.jobOptions()
		// Paced, so the kill lands while the job runs.
		opts.SourceRate = map[dataflow.OperatorID]float64{"src": 3000}
		return engine.NewJob(g, spec.Plan(), engine.ClusterSpec{Workers: spec.Workers}, factories, opts)
	}
	refOpts := deploy.jobOptions()
	refOpts.Transport = engine.TransportBatched
	ref, err := engine.NewJob(g, plan, engine.ClusterSpec{Workers: deploy.Workers}, factories, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	checkpointed := make(chan struct{})
	var once sync.Once
	co, err := NewCoordinator("127.0.0.1:0", deploy, 2, CoordinatorOptions{
		HeartbeatTimeout: 5 * time.Second,
		StopTimeout:      30 * time.Second,
		Replan: func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			next := dataflow.NewPlanSized(len(assign))
			for _, a := range assign {
				next.Assign(a.Task, 1-ev.DeadWorkers[0])
			}
			return next, nil
		},
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(fmt.Sprintf(format, args...), "checkpoint: epoch 1 complete") {
				once.Do(func() { close(checkpointed) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	errs := make(chan error, 2)
	for _, wctx := range []context.Context{ctx, victimCtx} {
		go func() {
			errs <- JoinCluster(wctx, co.Addr(), build, JoinOptions{HeartbeatEvery: 50 * time.Millisecond})
		}()
	}
	if err := co.WaitJoined(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		select {
		case <-checkpointed:
			kill()
		case <-ctx.Done():
		}
	}()
	res, runErr := co.Run(ctx)
	co.Shutdown()
	cancel()
	for i := 0; i < 2; i++ {
		<-errs
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Recoveries != 1 || res.RestoredEpoch < 1 {
		t.Fatalf("recoveries %d from epoch %d, want one restore from a checkpoint", res.Recoveries, res.RestoredEpoch)
	}
	if n := restored.Load(); n != 2 {
		t.Errorf("%d heavy images restored, want both", n)
	}
	if res.LostRecords != 0 || res.SinkRecords != want.SinkRecords || res.SourceRecords != want.SourceRecords {
		t.Errorf("lost %d, sink %d, source %d; the run without faults: sink %d, source %d",
			res.LostRecords, res.SinkRecords, res.SourceRecords, want.SinkRecords, want.SourceRecords)
	}
}

// TestJoinRefusesIncompleteRestore: a worker deploys an attempt that
// restores from a checkpoint only with a snapshot of each of its tasks at
// that epoch, sent as SNAPSHOT frames tagged with that attempt. Frames of
// another attempt are dropped, and a DEPLOY whose restore set then lacks a
// task is refused before the worker reports READY.
func TestJoinRefusesIncompleteRestore(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	all := len(fx.deploy.Assign)
	for name, sent := range map[string]struct{ attempt, tasks int }{
		"stale attempt": {attempt: 1, tasks: all},
		"missing task":  {attempt: 2, tasks: all - 1},
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			joined := make(chan error, 1)
			go func() {
				joined <- JoinCluster(ctx, ln.Addr().String(), NexmarkBuilderWith(nil), JoinOptions{HeartbeatEvery: time.Hour})
			}()
			c, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w := &connWriter{c: c}
			if f, err := engine.ReadFrame(c); err != nil || f.Type != engine.FrameHello {
				t.Fatalf("expected HELLO, got %d (%v)", f.Type, err)
			}
			if err := w.send(engine.FrameWelcome, wireWelcome{Worker: 0}); err != nil {
				t.Fatal(err)
			}
			d := fx.deployOn(1, all)
			d.Attempt, d.RestoreEpoch = 2, 1
			for _, a := range d.Assign[:sent.tasks] {
				if err := w.sendSnapshot(sent.attempt, &engine.TaskSnapshot{Task: a.Task, Epoch: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.send(engine.FrameDeploy, d); err != nil {
				t.Fatal(err)
			}
			if err := <-joined; err == nil || !strings.Contains(err.Error(), "bad DEPLOY of attempt 2") || !strings.Contains(err.Error(), "without a snapshot") {
				t.Fatalf("join ended with %v, want a refused DEPLOY naming the missing snapshot", err)
			}
		})
	}
}

// TestDistJoinVersionGate: report and restore payloads changed shape between
// protocol 3 and 4 and the data plane's frames between 4 and 5, so a worker
// from the other side of either line must be turned away at the handshake —
// not welcomed and then fed frames it would misdecode. The coordinator drops
// it and keeps waiting for a real worker.
func TestDistJoinVersionGate(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	co, err := NewCoordinator("127.0.0.1:0", fx.deployOn(1, len(fx.deploy.Assign)), 1, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	joined := make(chan error, 1)
	go func() { joined <- co.WaitJoined(ctx) }()
	for _, tc := range []struct {
		proto   int
		welcome bool
	}{
		// Proto 4 spoke gob on the data plane: it would join, deploy, and then
		// fail every data handshake against a proto-5 peer. Proto 5 kept
		// operator aux images and JSON join buffers in its snapshots. Proto 6
		// shipped the namespace image as JSON, which a proto-7 restore refuses,
		// and hashed a record key past its first NUL. Proto 9 kept an
		// incremental join's sides under two keys and gob-encoded SNAPSHOT.
		// Proto 10 gob-encoded every other control body and sent restore
		// snapshots inside DEPLOY.
		{4, false}, {5, false},
		{distProtoVersion - 1, false}, {distProtoVersion + 1, false}, {distProtoVersion, true},
	} {
		c, err := net.DialTimeout("tcp", co.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := (&connWriter{c: c}).send(engine.FrameHello, wireJoin{Proto: tc.proto}); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		f, err := engine.ReadFrame(c)
		if welcomed := err == nil && f.Type == engine.FrameWelcome; welcomed != tc.welcome {
			t.Errorf("proto %d against %d: welcomed = %v (read error %v), want %v", tc.proto, distProtoVersion, welcomed, err, tc.welcome)
		}
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
}

// TestConnWriterClassifiesEncodeErrors pins the error taxonomy recovery
// depends on: a local encode failure (oversized or unencodable body) must
// be distinguishable from a connection error, or the coordinator would
// "recover" against a healthy worker — and, since the oversized data
// persists, kill a worker per retry until the cluster is gone.
func TestConnWriterClassifiesEncodeErrors(t *testing.T) {
	srv, cli := net.Pipe()
	defer srv.Close()
	go io.Copy(io.Discard, srv)
	w := &connWriter{c: cli}
	huge := struct{ B []byte }{B: make([]byte, engine.MaxFramePayload+1)}
	if err := w.send(engine.FrameDeploy, huge); !errors.Is(err, errEncodePayload) {
		t.Fatalf("oversized payload error = %v, want errEncodePayload", err)
	}
	cli.Close()
	if err := w.send(engine.FrameHeartbeat, nil); err == nil || errors.Is(err, errEncodePayload) {
		t.Errorf("connection error misclassified as encode error: %v", err)
	}
}

// TestDistClusterRescaleLive schedules live rescales on a running
// 3-process-style cluster: the coordinator drains the cluster to a complete
// epoch, repartitions each changed operator's key-groups in its snapshot
// store, redeploys every worker on the rescaled topology, and the job
// finishes with the in-memory reference's sink outcome — nothing lost, no
// full replay, state actually moved. Plans of two operators due at one epoch
// are one decision: one drain, so every rescale.start names one attempt. The
// last case drains at the final epoch, after some worker's DONE: the abort
// counts that worker stopped instead of waiting out StopTimeout for it.
func TestDistClusterRescaleLive(t *testing.T) {
	cases := []struct {
		name  string
		plans []engine.RescalePlan
		// wantDowntime bounds RescaleDowntime (0 = no bound beyond > 0).
		wantDowntime time.Duration
	}{
		{name: "slide-win 8→10", plans: []engine.RescalePlan{{Op: "slide-win", Parallelism: 10, AtEpoch: 2}}},
		{name: "slide-win 8→5", plans: []engine.RescalePlan{{Op: "slide-win", Parallelism: 5, AtEpoch: 2}}},
		{name: "map 4→3 and slide-win 8→5", plans: []engine.RescalePlan{
			{Op: "map", Parallelism: 3, AtEpoch: 2}, {Op: "slide-win", Parallelism: 5, AtEpoch: 2}}},
		{name: "slide-win 8→5 at the last epoch", wantDowntime: 3 * time.Second,
			plans: []engine.RescalePlan{{Op: "slide-win", Parallelism: 5, AtEpoch: distRecords / distSnapshot}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newDistFixture(t, "Q1-sliding")
			want := fx.referenceResult(t, engine.TransportBatched)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			tel := telemetry.New()
			dc := startDistCluster(t, ctx, fx, CoordinatorOptions{
				HeartbeatTimeout: 5 * time.Second,
				// Well above wantDowntime: a drain that waits on a worker
				// which will never send STOPPED shows as a StopTimeout stall.
				StopTimeout: 10 * time.Second,
				Rescales:    tc.plans,
				Telemetry:   tel,
			})
			res, err := dc.co.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rescales != len(tc.plans) {
				t.Fatalf("Rescales = %d, want %d", res.Rescales, len(tc.plans))
			}
			if res.Failed || res.LostRecords != 0 {
				t.Fatalf("rescale lost records: failed=%v lost=%d", res.Failed, res.LostRecords)
			}
			if res.Recoveries != 0 {
				t.Errorf("clean rescale reported %d recoveries", res.Recoveries)
			}
			if res.SinkRecords != want.SinkRecords || res.SourceRecords != want.SourceRecords {
				t.Errorf("totals diverge from in-memory reference: sink %d/%d source %d/%d",
					res.SinkRecords, want.SinkRecords, res.SourceRecords, want.SourceRecords)
			}
			for _, p := range tc.plans {
				seen := 0
				for id := range res.Tasks {
					if id.Op == p.Op {
						seen++
					}
				}
				if seen != p.Parallelism {
					t.Errorf("result has %d %s tasks, want %d", seen, p.Op, p.Parallelism)
				}
			}
			drained := make(map[int]bool)
			for _, ev := range tel.Tracer().Events() {
				if ev.Kind == telemetry.EventRescaleStart {
					drained[ev.Attempt] = true
				}
			}
			if len(drained) != 1 {
				t.Errorf("rescale.start events name attempts %v, want one drain", drained)
			}
			if res.RestoredEpoch < 2 {
				t.Errorf("RestoredEpoch = %d, want >= 2 (resume must come from the drain epoch)", res.RestoredEpoch)
			}
			if res.RescaleDowntime <= 0 {
				t.Error("rescale must account downtime")
			}
			if tc.wantDowntime > 0 && res.RescaleDowntime > tc.wantDowntime {
				t.Errorf("RescaleDowntime = %v, want <= %v", res.RescaleDowntime, tc.wantDowntime)
			}
			if res.RescaleMovedBytes <= 0 {
				t.Error("changing the window operator's parallelism must move state")
			}
			snap := res.Metrics.Snapshot()
			if snap["job.rescales"] != float64(len(tc.plans)) {
				t.Errorf("job.rescales = %v, want %d", snap["job.rescales"], len(tc.plans))
			}
		})
	}
}

// TestDistRescaleOfSourceFails: a coordinator built directly from a
// DeploySpec has no graph to refuse a source rescale with, so the drain
// refuses it — the run fails with an error naming the source instead of
// completing with a third source's records on top of the reference's.
func TestDistRescaleOfSourceFails(t *testing.T) {
	fx := newDistFixture(t, "Q1-sliding")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dc := startDistCluster(t, ctx, fx, CoordinatorOptions{
		HeartbeatTimeout: 5 * time.Second,
		Rescales:         []engine.RescalePlan{{Op: "src", Parallelism: 3, AtEpoch: 2}},
	})
	res, err := dc.co.Run(ctx)
	if err == nil {
		t.Fatalf("source rescale completed: failed=%v lost=%d source records %d", res.Failed, res.LostRecords, res.SourceRecords)
	}
	if !strings.Contains(err.Error(), `"src" is a source`) {
		t.Errorf("Run error = %v, want the source named", err)
	}
}

// TestDistRescaleValidation covers the coordinator-side static rejections.
func TestDistRescaleValidation(t *testing.T) {
	fx := newDistFixture(t, "Q1-sliding")
	bad := []engine.RescalePlan{
		{Op: "nope", Parallelism: 2},
		{Op: "slide-win", Parallelism: 0},
		{Op: "slide-win", Parallelism: engine.DefaultKeyGroups + 1},
		{Op: "slide-win", Parallelism: 4, AtEpoch: -1},
	}
	for _, p := range bad {
		if _, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, CoordinatorOptions{
			Rescales: []engine.RescalePlan{p},
		}); err == nil {
			t.Errorf("rescale plan %+v accepted", p)
		}
	}
	noSnap := fx.deploy
	noSnap.SnapshotInterval = 0
	if _, err := NewCoordinator("127.0.0.1:0", noSnap, distWorkers, CoordinatorOptions{
		Rescales: []engine.RescalePlan{{Op: "slide-win", Parallelism: 4}},
	}); err == nil {
		t.Error("rescale without SnapshotInterval accepted")
	}
}

// TestDistValidation covers the coordinator's guard rails without any
// network traffic beyond a bound listener.
func TestDistValidation(t *testing.T) {
	fx := newDistFixture(t, "Q3-inf")
	if _, err := NewCoordinator("127.0.0.1:0", fx.deploy, 0, CoordinatorOptions{}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers+1, CoordinatorOptions{}); err == nil {
		t.Error("more worker processes than spec workers accepted")
	}
	empty := fx.deploy
	empty.Assign = nil
	if _, err := NewCoordinator("127.0.0.1:0", empty, distWorkers, CoordinatorOptions{}); err == nil {
		t.Error("empty assignment accepted")
	}
	co, err := NewCoordinator("127.0.0.1:0", fx.deploy, distWorkers, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	if _, err := co.Run(context.Background()); err == nil {
		t.Error("Run before WaitJoined accepted")
	}

	// The initial assignment is held to the processes that will join, not to
	// the spec's worker list: fx.deploy places tasks on all three workers.
	for name, bad := range map[string]DeploySpec{
		"task on a worker that will not join": fx.deploy,
		"task assigned twice": func() DeploySpec {
			d := fx.deployOn(2, len(fx.deploy.Assign))
			d.Assign = append(d.Assign, d.Assign[0])
			return d
		}(),
	} {
		if _, err := NewCoordinator("127.0.0.1:0", bad, 2, CoordinatorOptions{}); !errors.Is(err, engine.ErrInvalidPlan) {
			t.Errorf("initial assignment with a %s: error = %v, want engine.ErrInvalidPlan", name, err)
		}
	}

	// Re-placements go through the supervisor's one plan validator. Each row
	// kills fake worker 1 of a two-worker cluster and has Replan answer with
	// the row's plan: a bad answer must fail the run with a plan error while
	// the surviving worker stays alive — never be deployed, bounced by the
	// workers, and "recovered" as a death until the cluster is gone.
	tight := fx.deployOn(2, fx.deploy.Workers[0].Slots)
	roomy := fx.deployOn(2, len(fx.deploy.Assign))
	all := func(w int) *dataflow.Plan {
		next := dataflow.NewPlan()
		for _, a := range fx.deploy.Assign {
			next.Assign(a.Task, w)
		}
		return next
	}
	cases := []struct {
		name   string
		deploy DeploySpec
		next   func(survivor int) *dataflow.Plan // nil: no Replan hook at all
		want   error
	}{
		{"dropped task", roomy, func(s int) *dataflow.Plan {
			next := dataflow.NewPlan()
			for _, a := range fx.deploy.Assign[1:] {
				next.Assign(a.Task, s)
			}
			return next
		}, engine.ErrInvalidPlan},
		{"invented task", roomy, func(s int) *dataflow.Plan {
			next := all(s)
			next.Assign(dataflow.TaskID{Op: "ghost", Index: 0}, s)
			return next
		}, engine.ErrInvalidPlan},
		{"dead worker", roomy, func(s int) *dataflow.Plan { return all(1 - s) }, engine.ErrInvalidPlan},
		{"worker that never joined", roomy, func(int) *dataflow.Plan { return all(2) }, engine.ErrInvalidPlan},
		{"overloaded worker", tight, all, engine.ErrInvalidPlan},
		{"no hook", roomy, nil, engine.ErrNoReplacementHook},
		{"valid", roomy, all, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := runWithReplan(t, tc.deploy, tc.next)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
			if tc.name == "overloaded worker" && !strings.Contains(err.Error(), "overloaded") {
				t.Errorf("error = %v, want the overloaded worker and its counts named", err)
			}
		})
	}
}

// runWithReplan runs a two-fake-worker cluster whose worker 1 dies right
// after START and whose Replan answers next(survivor) (no Replan hook when
// next is nil). It returns Run's error and fails the test if the survivor
// was declared dead.
func runWithReplan(t *testing.T, deploy DeploySpec, next func(survivor int) *dataflow.Plan) error {
	t.Helper()
	opts := CoordinatorOptions{HeartbeatTimeout: 30 * time.Second, StopTimeout: 10 * time.Second}
	if next != nil {
		opts.Replan = func(ev engine.FailureEvent) (*dataflow.Plan, error) {
			return next(1 - ev.DeadWorkers[0]), nil
		}
	}
	co, err := NewCoordinator("127.0.0.1:0", deploy, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	joined := make(chan error, 1)
	go func() { joined <- co.WaitJoined(ctx) }()
	survivor := joinFakeWorker(t, co.Addr())
	victim := joinFakeWorker(t, co.Addr())
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(ctx)
		done <- err
	}()
	for _, fw := range []*fakeDistWorker{survivor, victim} {
		fw.expectDeployReady(1)
	}
	for _, fw := range []*fakeDistWorker{survivor, victim} {
		fw.expect(engine.FrameStart)
	}
	victim.c.Close()
	survivor.expect(engine.FrameAbort)
	if err := survivor.w.send(engine.FrameStopped, &engine.WorkerReport{Worker: survivor.id, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	// A deployable plan reaches the survivor as attempt 2; a rejected one
	// ends the run first.
	go func() {
		survivor.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if fr, err := engine.ReadFrame(survivor.c); err == nil && fr.Type == engine.FrameDeploy {
			survivor.w.send(engine.FrameReady, wireReady{Attempt: 2, Addr: "127.0.0.1:40000"})
			if fr, err := engine.ReadFrame(survivor.c); err == nil && fr.Type == engine.FrameStart {
				survivor.w.send(engine.FrameDone, &engine.WorkerReport{Worker: survivor.id, Attempt: 2, Completed: true})
			}
		}
	}()
	err = <-done
	if !co.conns[survivor.id].alive.Load() {
		t.Errorf("surviving worker %d was declared dead", survivor.id)
	}
	return err
}

// TestCheckpointTimelineBothModes runs one checkpointed job with a live
// rescale in process and on a two-worker cluster, and requires one
// checkpoint story from both: every completed epoch has exactly one
// checkpoint.start and one checkpoint.complete, each naming its attempt and
// carrying the same attributes in both modes. On the cluster both are the
// coordinator's, however many workers inject or snapshot the epoch.
func TestCheckpointTimelineBothModes(t *testing.T) {
	fx := newDistFixture(t, "Q1-sliding")
	rescale := engine.RescalePlan{Op: "slide-win", Parallelism: 5, AtEpoch: 2}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	binding, err := nexmark.BindEngine(fx.spec, distSeed)
	if err != nil {
		t.Fatal(err)
	}
	local := telemetry.New()
	job, err := engine.NewJob(fx.spec.Graph, fx.plan, fx.espec, binding.Factories, engine.JobOptions{
		RecordsPerSource: distRecords,
		SnapshotInterval: distSnapshot,
		Transport:        engine.TransportBatched,
		Stateful:         binding.Stateful,
		PerRecordCPU:     binding.PerRecordCPU,
		Rescales:         []engine.RescalePlan{rescale},
		Telemetry:        local,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescales != 1 {
		t.Fatalf("in process: Rescales = %d, want 1", res.Rescales)
	}
	localAttrs := checkpointStory(t, "in process", local.Tracer().Events(), "")

	coTel := telemetry.New()
	co, err := NewCoordinator("127.0.0.1:0", fx.deployOn(2, len(fx.deploy.Assign)), 2, CoordinatorOptions{
		HeartbeatTimeout: 5 * time.Second,
		Rescales:         []engine.RescalePlan{rescale},
		Telemetry:        coTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinTelemetryWorkers(t, ctx, co, 2, 25*time.Millisecond)
	if res, err = co.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if res.Rescales != 1 {
		t.Fatalf("cluster: Rescales = %d, want 1", res.Rescales)
	}
	clusterAttrs := checkpointStory(t, "cluster", coTel.Tracer().Events(), "coord")
	if !reflect.DeepEqual(localAttrs, clusterAttrs) {
		t.Errorf("checkpoint attributes differ: in process %v, cluster %v", localAttrs, clusterAttrs)
	}
}

// checkpointStory checks a timeline's checkpoint.* events — one start and
// one complete per completed epoch, each with its attempt, and every one
// from src when src is set — and returns each kind's attribute keys.
func checkpointStory(t *testing.T, mode string, evs []telemetry.Event, src string) map[string][]string {
	t.Helper()
	counts := map[string]map[int64]int{
		telemetry.EventCheckpointStart:    {},
		telemetry.EventCheckpointComplete: {},
	}
	attrs := map[string][]string{}
	for _, ev := range evs {
		byEpoch, ok := counts[ev.Kind]
		if !ok {
			continue
		}
		byEpoch[ev.Epoch]++
		if ev.Attempt <= 0 {
			t.Errorf("%s: %s of epoch %d names no attempt", mode, ev.Kind, ev.Epoch)
		}
		if src != "" && ev.Src != src {
			t.Errorf("%s: %s of epoch %d comes from %q, want %q", mode, ev.Kind, ev.Epoch, ev.Src, src)
		}
		keys := []string{}
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if prev, seen := attrs[ev.Kind]; seen && !reflect.DeepEqual(prev, keys) {
			t.Errorf("%s: %s attributes %v, earlier %v", mode, ev.Kind, keys, prev)
		}
		attrs[ev.Kind] = keys
	}
	completed := counts[telemetry.EventCheckpointComplete]
	if len(completed) < 3 {
		t.Fatalf("%s: %d epochs completed, want the ones before and after the rescale", mode, len(completed))
	}
	for epoch, n := range completed {
		if starts := counts[telemetry.EventCheckpointStart][epoch]; n != 1 || starts != 1 {
			t.Errorf("%s: epoch %d has %d checkpoint.start and %d checkpoint.complete, want one each", mode, epoch, starts, n)
		}
	}
	return attrs
}
