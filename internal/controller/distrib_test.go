package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	return joinDistWorkers(t, ctx, co, distWorkers)
}

// joinDistWorkers joins n in-process workers to co and waits for the
// cluster to be complete.
func joinDistWorkers(t *testing.T, ctx context.Context, co *Coordinator, n int) *distCluster {
	t.Helper()
	dc := &distCluster{co: co}
	for w := 0; w < n; w++ {
		wctx, cancel := context.WithCancel(ctx)
		dc.cancel = append(dc.cancel, cancel)
		errc := make(chan error, 1)
		dc.errs = append(dc.errs, errc)
		go func() {
			errc <- JoinCluster(wctx, co.Addr(), NexmarkBuilderWith(nil), JoinOptions{
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
		if err := fw.w.send(engine.FrameStopped, wireReport{Report: &engine.WorkerReport{Worker: fw.id, Attempt: 1}}); err != nil {
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
		if err := fw.w.send(engine.FrameDone, wireReport{Report: &engine.WorkerReport{Worker: fw.id, Attempt: 2, Completed: true}}); err != nil {
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
	if err := fw0.w.send(engine.FrameStopped, wireReport{Report: &engine.WorkerReport{Worker: fw0.id, Attempt: 1}}); err != nil {
		t.Fatal(err)
	}
	fw0.expectDeployReady(2)
	fw0.expect(engine.FrameStart)
	if err := fw0.w.send(engine.FrameDone, wireReport{Report: &engine.WorkerReport{Worker: fw0.id, Attempt: 2, Completed: true}}); err != nil {
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

// TestWirePayloadRoundTrip pins that every control-plane payload carrying
// engine types survives gob unchanged: the frames speak dataflow.TaskID,
// engine.TaskSnapshot, engine.TaskStats and named metric snapshots directly,
// with no wire-only mirror in between to drift.
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
	payloads := []any{
		&DeploySpec{
			Query: "Q1-sliding", Seed: 5, RecordsPerSource: 800, SnapshotInterval: 100, KeyGroups: 128,
			Workers:  []engine.WorkerSpec{{ID: "w0", Slots: 4, Cores: 2, IOBps: 1e6, NetBps: 1e9}},
			Assign:   []TaskAssignment{{Task: win0, Worker: 0}, {Task: win1, Worker: 1}},
			Rescaled: map[dataflow.OperatorID]int{"win": 6},
			Attempt:  2, Local: 1, RestoreEpoch: 3,
			Snapshots: []*engine.TaskSnapshot{snap},
		},
		&wireSnap{Attempt: 2, Snap: snap},
		&wireReport{Report: &engine.WorkerReport{
			Worker: 1, Attempt: 2, Completed: true, Lost: 4,
			Tasks: map[dataflow.TaskID]engine.TaskStats{
				win1: {Worker: 1, RecordsIn: 300, RecordsOut: 120, BytesOut: 9600,
					BusyTime: 3 * time.Millisecond, BackpressureT: time.Millisecond, Sink: true, Dead: true},
			},
			Metrics: metrics.TypedValues{
				Counters: map[string]int64{"net.frames_sent": 40, "exchange.batches": 12},
				Times:    map[string]time.Duration{"exchange.credit_stall_seconds": 5 * time.Millisecond},
			},
			Hists: map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": wait.Snapshot()},
		}},
		&wireHeartbeat{Stats: &wireStats{
			TypedValues: metrics.TypedValues{
				Counters: map[string]int64{"net.frames_sent": 3},
				Gauges:   map[string]float64{"queue.depth": 4},
				Times:    map[string]time.Duration{"exchange.credit_stall_seconds": time.Millisecond},
			},
			FnGauges: []telemetry.GaugeSample{{Family: "worker_saturation", Labels: map[string]string{"resource": "cpu"}, Value: 0.25}},
			Hists:    map[string]telemetry.HistogramSnapshot{"net.credit_wait_seconds": wait.Snapshot()},
		}},
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
		// and hashed a record key past its first NUL.
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

// TestDistValidation covers the coordinator's guard rails without any
// network traffic beyond a bound listener.
// TestDistClusterRescaleLive schedules a live rescale of the stateful window
// operator on a running 3-process-style cluster: the coordinator drains the
// cluster to a complete epoch, repartitions the operator's key-groups in its
// snapshot store, redeploys every worker on the rescaled topology, and the
// job finishes with the in-memory reference's sink outcome — nothing lost,
// no full replay, state actually moved.
func TestDistClusterRescaleLive(t *testing.T) {
	for _, to := range []int{10, 5} {
		t.Run(fmt.Sprintf("slide-win 8→%d", to), func(t *testing.T) {
			fx := newDistFixture(t, "Q1-sliding")
			want := fx.referenceResult(t, engine.TransportBatched)

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dc := startDistCluster(t, ctx, fx, CoordinatorOptions{
				HeartbeatTimeout: 5 * time.Second,
				Rescales:         []engine.RescalePlan{{Op: "slide-win", Parallelism: to, AtEpoch: 2}},
			})
			res, err := dc.co.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rescales != 1 {
				t.Fatalf("Rescales = %d, want 1", res.Rescales)
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
			seen := 0
			for id := range res.Tasks {
				if id.Op == "slide-win" {
					seen++
				}
			}
			if seen != to {
				t.Errorf("result has %d slide-win tasks, want %d", seen, to)
			}
			if res.RestoredEpoch < 2 {
				t.Errorf("RestoredEpoch = %d, want >= 2 (resume must come from the drain epoch)", res.RestoredEpoch)
			}
			if res.RescaleDowntime <= 0 {
				t.Error("rescale must account downtime")
			}
			if res.RescaleMovedBytes <= 0 {
				t.Error("changing the window operator's parallelism must move state")
			}
			snap := res.Metrics.Snapshot()
			if snap["job.rescales"] != 1 {
				t.Errorf("job.rescales = %v, want 1", snap["job.rescales"])
			}
		})
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
	if err := survivor.w.send(engine.FrameStopped, wireReport{Report: &engine.WorkerReport{Worker: survivor.id, Attempt: 1}}); err != nil {
		t.Fatal(err)
	}
	// A deployable plan reaches the survivor as attempt 2; a rejected one
	// ends the run first.
	go func() {
		survivor.c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if fr, err := engine.ReadFrame(survivor.c); err == nil && fr.Type == engine.FrameDeploy {
			survivor.w.send(engine.FrameReady, wireReady{Attempt: 2, Addr: "127.0.0.1:40000"})
			if fr, err := engine.ReadFrame(survivor.c); err == nil && fr.Type == engine.FrameStart {
				survivor.w.send(engine.FrameDone, wireReport{Report: &engine.WorkerReport{Worker: survivor.id, Attempt: 2, Completed: true}})
			}
		}
	}()
	err = <-done
	if !co.conns[survivor.id].alive.Load() {
		t.Errorf("surviving worker %d was declared dead", survivor.id)
	}
	return err
}
