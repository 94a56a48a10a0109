package engine

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"capsys/internal/dataflow"
)

// wireJob builds a two-worker src->sink job for the distributed worker API:
// src on worker 0, sink on worker 1, so every record crosses a real socket.
// Each call returns a fresh Job (each worker process builds its own).
func wireJob(t *testing.T, sink SinkFunc, opts JobOptions) *Job {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 1, Selectivity: 1},
		{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(dataflow.Edge{From: "src", To: "snk"}); err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlan()
	plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "snk", Index: 0}, 1)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"snk": func(*TaskContext) (any, error) { return NewSink(sink), nil },
	}
	opts.Transport = TransportNetwork
	job, err := NewJob(g, plan, bigWorkers(2, 2), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// startWirePair prepares and starts both workers' attempts and exchanges
// their data addresses, exactly as the coordinator's deploy/start phases
// would.
func startWirePair(t *testing.T, ctx context.Context, j0, j1 *Job) (*WorkerRun, *WorkerRun) {
	t.Helper()
	r0, err := j0.PrepareWorkerAttempt(WorkerNetConfig{Local: 0})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.PrepareWorkerAttempt(WorkerNetConfig{Local: 1})
	if err != nil {
		t.Fatal(err)
	}
	r0.Start(ctx, map[int]string{1: r1.DataAddr()})
	r1.Start(ctx, map[int]string{0: r0.DataAddr()})
	return r0, r1
}

// TestWorkerRunWireClean drives a two-process-shaped run (separate Job
// instances, TCP between them) to completion and checks the wire counters
// and per-worker reports line up.
func TestWorkerRunWireClean(t *testing.T) {
	const records = 300
	opts := JobOptions{RecordsPerSource: records, ChannelCapacity: 16, BatchSize: 8}
	j0 := wireJob(t, nil, opts)
	j1 := wireJob(t, nil, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0, r1 := startWirePair(t, ctx, j0, j1)
	for _, r := range []*WorkerRun{r0, r1} {
		select {
		case <-r.Done():
		case <-ctx.Done():
			t.Fatal("worker run did not finish")
		}
	}
	rep0, err := r0.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := r1.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep0.Completed || !rep1.Completed {
		t.Fatalf("clean run not completed: w0=%v w1=%v", rep0.Completed, rep1.Completed)
	}
	// Worker 0 hosts only src; worker 1 only snk. Every record crossed the
	// wire exactly once.
	res := assembleResult([]*WorkerReport{rep0, rep1}, runAgg{elapsed: time.Second})
	if res.SourceRecords != records || res.SinkRecords != records {
		t.Fatalf("source/sink = %d/%d, want %d/%d", res.SourceRecords, res.SinkRecords, records, records)
	}
	c0, c1 := rep0.Metrics.Counters, rep1.Metrics.Counters
	if c0["net.data_batches"] == 0 {
		t.Error("sender shipped no data batches over the wire")
	}
	if c0["net.credit_frames"] == 0 && c1["net.credit_frames"] == 0 {
		t.Error("no credit frames: wire flow control never engaged")
	}
	snap := res.Metrics.Snapshot()
	if snap["net.frames_sent"] <= 0 || snap["net.frames_received"] <= 0 {
		t.Errorf("net frame counters not exported: sent=%v received=%v",
			snap["net.frames_sent"], snap["net.frames_received"])
	}
	// A batch never exceeds the configured size, and the credit protocol
	// never puts more than ChannelCapacity records in flight, so per-batch
	// record counts are bounded by min(BatchSize, ChannelCapacity).
	if c0["exchange.batches"] > 0 {
		mean := float64(c0["exchange.batch_records"]) / float64(c0["exchange.batches"])
		if mean > float64(opts.BatchSize) {
			t.Errorf("mean batch size %.1f exceeds configured %d", mean, opts.BatchSize)
		}
	}
}

// TestWorkerRunAbortUnblocksWireSend is the socket-level abort regression
// test: the sink worker stalls mid-stream (never draining its inbox), the
// source worker fills the receiver's credit window and blocks in
// flushTarget waiting for a credit grant that will never arrive — then
// Abort on both sides must release the blocked sender promptly. Before
// credit waits honored the abort channel this hung forever.
func TestWorkerRunAbortUnblocksWireSend(t *testing.T) {
	stall := make(chan struct{})
	var sunk int
	sink := func(Record) {
		sunk++
		if sunk == 3 {
			<-stall // park the sink task; its inbox stops draining
		}
	}
	// Tiny capacity so the sender exhausts the window fast and provably
	// blocks on the wire credit path, not in a channel.
	opts := JobOptions{RecordsPerSource: 10_000, ChannelCapacity: 4, BatchSize: 2}
	j0 := wireJob(t, nil, opts)
	j1 := wireJob(t, sink, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0, r1 := startWirePair(t, ctx, j0, j1)

	// Let the source run into the stalled window. It can make no progress
	// past capacity+buffered, so any settle time is enough; correctness
	// does not depend on the exact instant.
	time.Sleep(100 * time.Millisecond)
	aborted := time.Now()
	r0.Abort()
	r1.Abort()
	// The sender worker holds no stalled user code — only the wire credit
	// wait. It must unblock from Abort alone, with the sink still parked.
	select {
	case <-r0.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not unblock the sender stuck in a wire credit wait")
	}
	if waited := time.Since(aborted); waited > 5*time.Second {
		t.Errorf("abort took %v to release the blocked sender", waited)
	}
	// The sink worker can only exit once its SinkFunc returns: abort cannot
	// (and must not) preempt user code.
	close(stall)
	select {
	case <-r1.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sink worker did not stop after abort + sink release")
	}
	rep0, err := r0.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Completed {
		t.Error("aborted sender reported Completed")
	}
	// The sender must have stopped far short of the full stream: blocked,
	// not spinning.
	var srcOut int64
	for _, ts := range rep0.Tasks {
		srcOut += ts.RecordsOut
	}
	if srcOut > 1000 {
		t.Errorf("source emitted %d records against a stalled sink (flow control leak)", srcOut)
	}
}

// TestWorkerRunDiscard covers the abort-before-start path the coordinator
// uses when a peer dies between deploy and start.
func TestWorkerRunDiscard(t *testing.T) {
	j := wireJob(t, nil, JobOptions{RecordsPerSource: 100})
	r, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: 0, AttemptNo: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Discard()
	if rep == nil || rep.Attempt != 3 || rep.Completed {
		t.Fatalf("discard report = %+v, want attempt 3, not completed", rep)
	}
	select {
	case <-r.Done():
	default:
		t.Error("Done not closed after Discard")
	}
}

// fanInWireJob builds a job where TWO source tasks on worker 0 feed one
// sink task on worker 1: both senders share the receiver's single credit
// gate through one grantor, so their concurrent credit requests can sum
// past the gate's capacity.
func fanInWireJob(t *testing.T, opts JobOptions) *Job {
	t.Helper()
	g := dataflow.NewLogicalGraph()
	for _, op := range []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
		{ID: "snk", Kind: dataflow.KindSink, Parallelism: 1},
	} {
		if err := g.AddOperator(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(dataflow.Edge{From: "src", To: "snk"}); err != nil {
		t.Fatal(err)
	}
	plan := dataflow.NewPlan()
	plan.Assign(dataflow.TaskID{Op: "src", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "src", Index: 1}, 0)
	plan.Assign(dataflow.TaskID{Op: "snk", Index: 0}, 1)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Value: i, Time: i}, true
			}), nil
		},
		"snk": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	opts.Transport = TransportNetwork
	job, err := NewJob(g, plan, bigWorkers(2, 2), factories, opts)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestWireCreditFanInExceedsCapacity is the credit-coalescing deadlock
// regression: two co-located senders each request BatchSize credits for the
// same receiving task, with ChannelCapacity == BatchSize, so the summed
// concurrent demand (2×BatchSize) exceeds the gate's capacity. A grantor
// that merges pending requests into one acquire asks for more than the gate
// can ever hold and blocks forever — senders hang on the mirror gate and
// the cluster deadlocks with heartbeats still flowing. FIFO per-request
// grants keep every acquire individually satisfiable.
func TestWireCreditFanInExceedsCapacity(t *testing.T) {
	const perSource = 1500
	opts := JobOptions{RecordsPerSource: perSource, ChannelCapacity: 4, BatchSize: 4}
	j0 := fanInWireJob(t, opts)
	j1 := fanInWireJob(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0, r1 := startWirePair(t, ctx, j0, j1)
	for _, r := range []*WorkerRun{r0, r1} {
		select {
		case <-r.Done():
		case <-ctx.Done():
			t.Fatal("fan-in run deadlocked: coalesced credit requests exceeded gate capacity")
		}
	}
	rep0, err := r0.Report()
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := r1.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep0.Completed || !rep1.Completed {
		t.Fatalf("fan-in run not completed: w0=%v w1=%v", rep0.Completed, rep1.Completed)
	}
	res := assembleResult([]*WorkerReport{rep0, rep1}, runAgg{elapsed: time.Second})
	if want := int64(2 * perSource); res.SinkRecords != want || res.SourceRecords != want {
		t.Errorf("source/sink = %d/%d, want %d/%d", res.SourceRecords, res.SinkRecords, want, want)
	}
	if res.LostRecords != 0 {
		t.Errorf("lost %d records", res.LostRecords)
	}
}

// TestWorkerRunDataPlaneSendFailureEscalates covers the data-plane-only
// failure path: every send to the peer fails (its address is unreachable),
// no coordinator ever aborts the attempt, and the sender must escalate to a
// fatal attempt error after dataPlaneEscalation instead of blocking forever
// while heartbeats would keep flowing.
func TestWorkerRunDataPlaneSendFailureEscalates(t *testing.T) {
	old := dataPlaneEscalation
	dataPlaneEscalation = 300 * time.Millisecond
	defer func() { dataPlaneEscalation = old }()

	var mu sync.Mutex
	var peersDown []int
	j0 := wireJob(t, nil, JobOptions{RecordsPerSource: 100, ChannelCapacity: 8, BatchSize: 4})
	r0, err := j0.PrepareWorkerAttempt(WorkerNetConfig{
		Local: 0,
		OnPeerDown: func(peer int, err error) {
			mu.Lock()
			peersDown = append(peersDown, peer)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Port 1 on loopback refuses immediately: the very first flush fails in
	// failSend, deterministically, before any credit wait can block.
	r0.Start(ctx, map[int]string{1: "127.0.0.1:1"})
	select {
	case <-r0.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("send failure never escalated; attempt hung waiting for an abort that cannot come")
	}
	if _, err := r0.Report(); err == nil {
		t.Fatal("attempt with unrecovered send failure reported success")
	} else if !strings.Contains(err.Error(), "data-plane send to worker 1") {
		t.Errorf("escalation error = %v, want the failed peer named", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(peersDown) != 1 || peersDown[0] != 1 {
		t.Errorf("OnPeerDown calls = %v, want exactly one for peer 1", peersDown)
	}
}

// TestWireUnregisteredValueIsEncodeError: a value type the codec table does
// not know cannot be shipped. The flush counts it in net.encode_errors
// without touching the peer, and the attempt fails visibly — naming the type
// — instead of dropping the record or hanging.
func TestWireUnregisteredValueIsEncodeError(t *testing.T) {
	old := dataPlaneEscalation
	dataPlaneEscalation = 300 * time.Millisecond
	defer func() { dataPlaneEscalation = old }()

	type unregistered struct{ A int }
	j0 := wireJob(t, nil, JobOptions{RecordsPerSource: 4, BatchSize: 4})
	j0.factories["src"] = func(*TaskContext) (any, error) {
		return NewSource(func(_, i int64) (Record, bool) { return Record{Value: unregistered{A: int(i)}}, true }), nil
	}
	j1 := wireJob(t, nil, JobOptions{RecordsPerSource: 4, BatchSize: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0, r1 := startWirePair(t, ctx, j0, j1)
	defer func() { r1.Abort(); <-r1.Done() }()
	select {
	case <-r0.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("attempt with an unencodable batch never finished")
	}
	if _, err := r0.Report(); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Errorf("report error = %v, want the unregistered value type named", err)
	}
	if got := r0.att.net.encodeErrors.Value(); got != 1 {
		t.Errorf("net.encode_errors = %d, want 1", got)
	}
	if got := r0.att.net.dataBatches.Value(); got != 0 {
		t.Errorf("net.data_batches = %d, want 0", got)
	}
}

// TestHandleFrameToleratesStrayFrames pins the stray-frame discipline: a
// decodable frame with an unexpected key (unknown task, no grantor/mirror,
// non-positive credit count, foreign type) is counted and skipped — it must
// NOT sever the shared connection and with it every channel multiplexed on
// it — while an undecodable payload still does.
func TestHandleFrameToleratesStrayFrames(t *testing.T) {
	j := wireJob(t, nil, JobOptions{RecordsPerSource: 1})
	r, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Discard()
	node := r.att.net.nodes[1]
	ghost := dataflow.TaskID{Op: "ghost", Index: 0}
	snk := dataflow.TaskID{Op: "snk", Index: 0} // one input, one channel
	one := []batchEntry{{rec: Record{Value: int64(1)}}}
	data := func(task dataflow.TaskID, in, ch int) []byte {
		p, err := appendBatch(nil, task, in, ch, one)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	strays := []Frame{
		{Type: FrameCredit, Payload: appendCredit(nil, ghost, 5)},    // unknown task
		{Type: FrameCredit, Payload: appendCredit(nil, snk, 5)},      // no mirror on the receiver side
		{Type: FrameCreditReq, Payload: appendCredit(nil, ghost, 5)}, // no grantor
		{Type: FrameCreditReq, Payload: appendCredit(nil, snk, 0)},   // non-positive count
		{Type: FrameData, Payload: data(ghost, 0, 0)},
		{Type: FrameEOF, Payload: appendMark(nil, ghost, 0, 0, 0)},
		{Type: FrameHeartbeat}, // control-plane type strayed onto a data conn
		// A known task addressed on an input or channel it does not have:
		// dispatched, each would start a pump for a channel that does not
		// exist and the task loop would index chanWM/chanSeen out of range.
		{Type: FrameData, Payload: data(snk, 1, 0)},
		{Type: FrameData, Payload: data(snk, 0, 1)},
		{Type: FrameBarrier, Payload: appendMark(nil, snk, 0, 7, 3)},
		{Type: FrameEOF, Payload: appendMark(nil, snk, 3, 0, 0)},
	}
	for i, f := range strays {
		if !node.handleFrame(0, f) {
			t.Errorf("stray frame %d severed the connection", i)
		}
	}
	if got := r.att.net.unexpectedFrames.Value(); got != int64(len(strays)) {
		t.Errorf("unexpected_frames = %d, want %d", got, len(strays))
	}
	node.dmu.Lock()
	pumps := len(node.pumps)
	node.dmu.Unlock()
	if pumps != 0 {
		t.Errorf("stray frames started %d delivery pumps, want none", pumps)
	}
	// An undecodable payload is stream corruption: still connection-fatal —
	// a truncated credit, and a data frame declaring more records than its
	// bytes could hold.
	for i, f := range []Frame{
		{Type: FrameCredit, Payload: []byte{0xff, 0x02, 0x03}},
		{Type: FrameData, Payload: append(appendTask(nil, snk), 0, 0, 200, 1)},
		{Type: FrameBarrier, Payload: appendTask(nil, snk)},
	} {
		if node.handleFrame(0, f) {
			t.Errorf("corrupt payload %d did not sever the connection", i)
		}
	}
}

// TestWireTeardownClosesLateConnections pins the teardown race fix: shutdown
// sweeps the connections it can see, so one that finishes dialing, or is
// accepted, after the sweep (a grantor granting into an attempt that aborted
// under the requester) must close itself. Left open, the dialed end is never
// closed by anyone and — in process — the accepted end's reader blocks on it
// forever, and shutdown on that reader.
func TestWireTeardownClosesLateConnections(t *testing.T) {
	j := wireJob(t, nil, JobOptions{RecordsPerSource: 1})
	r, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: 1})
	if err != nil {
		t.Fatal(err)
	}
	na, node := r.att.net, r.att.net.nodes[1]
	// Teardown has begun, but the sweep has not reached the listener yet.
	na.stopOnce.Do(func() { close(na.stop) })

	// Accept side: a handshake arriving now is closed, not served.
	c, err := net.Dial("tcp", r.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := WriteFrame(c, Frame{Type: FrameDataHello, Payload: appendHello(nil, 0, r.att.no)}); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("connection accepted after teardown began was left open (read: %v)", err)
	}

	// Dial side: the same listener stands in for the peer.
	na.setPeers(map[int]string{0: r.DataAddr()})
	if pc, err := node.connTo(0); err == nil {
		t.Errorf("connTo after teardown began returned a live connection (%v)", pc.conn.Load().RemoteAddr())
	}
	r.Discard() // shutdown must find nothing left to wait for
}

// TestPrepareWorkerAttemptValidation pins the config guard rails.
func TestPrepareWorkerAttemptValidation(t *testing.T) {
	j := wireJob(t, nil, JobOptions{RecordsPerSource: 10})
	if _, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: -1}); err == nil {
		t.Error("negative worker accepted")
	}
	if _, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: 2}); err == nil {
		t.Error("out-of-range worker accepted")
	}
}
