package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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
// uses when a peer dies between deploy and start: Abort alone discards the
// prepared run, which reports zero progress, and may be repeated.
func TestWorkerRunDiscard(t *testing.T) {
	j := wireJob(t, nil, JobOptions{RecordsPerSource: 100})
	r, err := j.PrepareWorkerAttempt(WorkerNetConfig{Local: 0, AttemptNo: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.Abort()
	select {
	case <-r.Done():
	default:
		t.Fatal("Done not closed after aborting an unstarted run")
	}
	r.Abort()
	rep, err := r.Report()
	if err != nil || rep == nil || rep.Attempt != 3 || rep.Completed {
		t.Fatalf("report = %+v, %v; want attempt 3, not completed", rep, err)
	}
	for id, ts := range rep.Tasks {
		if ts.RecordsIn != 0 || ts.RecordsOut != 0 {
			t.Errorf("%v reports progress %d/%d from a run that never started", id, ts.RecordsIn, ts.RecordsOut)
		}
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
// failure path: the connection to the peer fails, no coordinator ever aborts
// the attempt, and the sender must escalate to a fatal attempt error after
// dataPlaneEscalation instead of blocking forever while heartbeats would
// keep flowing. The failure is the writer's to find, and it can land in two
// places: before the sender's next flush (the dial is refused), or while the
// sender is already blocked on a frame parked for credits that can now
// never be spent.
func TestWorkerRunDataPlaneSendFailureEscalates(t *testing.T) {
	old := dataPlaneEscalation
	dataPlaneEscalation = 300 * time.Millisecond
	defer func() { dataPlaneEscalation = old }()

	// Port 1 on loopback refuses immediately: the writer's first dial fails.
	t.Run("dial-refused", func(t *testing.T) {
		escalates(t, "127.0.0.1:1", func(*WorkerRun) {})
	})
	// A peer that accepts and never grants: the source parks its first batch,
	// fills the second and stalls. Then the socket dies under the writer.
	t.Run("blocked-on-parked-frame", func(t *testing.T) {
		escalates(t, newWirePeer(t, true).addr(), func(r *WorkerRun) {
			// Stalled, and the request that precedes the parked frame written:
			// the connection is up and the writer idle.
			waitFor(t, "the sender to stall on its parked frame", func() bool {
				return r.att.creditStalls.Value() > 0 && r.att.net.writes.Value() > 0
			})
			// Close the socket and give the writer one more frame to find out.
			pc := r.att.net.nodes[0].conns[1]
			pc.closeNow()
			pc.sendCredit(FrameCredit, dataflow.TaskID{Op: "ghost"}, 1)
		})
	})
}

// escalates starts worker 0 of a wireJob against a peer data address, runs
// inject, and requires the attempt to end in the escalation error with
// exactly one OnPeerDown for peer 1.
func escalates(t *testing.T, peerAddr string, inject func(*WorkerRun)) {
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
	r0.Start(ctx, map[int]string{1: peerAddr})
	inject(r0)
	select {
	case <-r0.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("send failure never escalated; attempt hung waiting for an abort that cannot come")
	}
	if _, err := r0.Report(); err == nil {
		t.Fatal("attempt with unrecovered send failure reported success")
	} else if !errors.Is(err, ErrDataPlaneSend) {
		t.Errorf("escalation error = %v, want ErrDataPlaneSend", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(peersDown) != 1 || peersDown[0] != 1 {
		t.Errorf("OnPeerDown calls = %v, want exactly one for peer 1", peersDown)
	}
}

// TestWireUnregisteredValueIsEncodeError: a value type the codec table does
// not know cannot be shipped. That is a fault of the data, not of the peer:
// the flush counts it in net.encode_errors, ships nothing, reports no peer
// down, and the attempt fails at once with ErrWireValue — well inside
// dataPlaneEscalation, which a send failure would wait out before blaming the
// healthy worker.
func TestWireUnregisteredValueIsEncodeError(t *testing.T) {
	type unregistered struct{ A int }
	j0 := wireJob(t, nil, JobOptions{RecordsPerSource: 4, BatchSize: 4})
	j0.factories["src"] = func(*TaskContext) (any, error) {
		return NewSource(func(_, i int64) (Record, bool) { return Record{Value: unregistered{A: int(i)}}, true }), nil
	}
	j1 := wireJob(t, nil, JobOptions{RecordsPerSource: 4, BatchSize: 4})
	var peersDown atomic.Int64
	r0, err := j0.PrepareWorkerAttempt(WorkerNetConfig{Local: 0, OnPeerDown: func(int, error) { peersDown.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.PrepareWorkerAttempt(WorkerNetConfig{Local: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0.Start(ctx, map[int]string{1: r1.DataAddr()})
	r1.Start(ctx, map[int]string{0: r0.DataAddr()})
	defer func() { r1.Abort(); <-r1.Done() }()
	select {
	case <-r0.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("attempt with an unencodable batch did not fail at once")
	}
	if _, err := r0.Report(); !errors.Is(err, ErrWireValue) {
		t.Errorf("report error = %v, want ErrWireValue", err)
	}
	if n := peersDown.Load(); n != 0 {
		t.Errorf("OnPeerDown called %d times for an encode fault", n)
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
	defer r.Abort()
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
		// exist and the task loop would index chanWM and the alignment's
		// channel statuses out of range.
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
	// The writer itself has exited on stop; its dial is what a writer caught
	// mid-dial by teardown would be running.
	if c, err := node.conns[0].dial(); err == nil {
		t.Errorf("dial after teardown began returned a live connection (%v)", c.RemoteAddr())
	}
	r.Abort() // shutdown must find nothing left to wait for
}

// wirePeer stands in for a peer worker's data listener: it accepts the one
// connection a worker's writer dials and hands every frame after the HELLO,
// in wire order, to next — or, when discard is set, just drains the socket.
type wirePeer struct {
	ln     net.Listener
	frames chan Frame
}

func newWirePeer(t *testing.T, discard bool) *wirePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered past anything a test ships, so the reader never blocks on it.
	p := &wirePeer{ln: ln, frames: make(chan Frame, 256)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if discard {
			io.Copy(io.Discard, c)
			return
		}
		for {
			f, err := ReadFrame(c)
			if err != nil {
				return
			}
			if f.Type != FrameDataHello {
				p.frames <- f
			}
		}
	}()
	return p
}

func (p *wirePeer) addr() string { return p.ln.Addr().String() }

// next returns the next frame off the wire, which must be of type typ.
func (p *wirePeer) next(t *testing.T, typ byte) Frame {
	t.Helper()
	select {
	case f := <-p.frames:
		if f.Type != typ {
			t.Fatalf("frame type %s on the wire, want %s", frameTypeName(f.Type), frameTypeName(typ))
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s frame reached the wire", frameTypeName(typ))
		return Frame{}
	}
}

// nextData expects a DATA frame on channel ch whose first value is first.
func (p *wirePeer) nextData(t *testing.T, ch int, first int64) {
	t.Helper()
	h, entries, err := decodeBatch(p.next(t, FrameData).Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.ch != ch || entries[0].rec.Value != first {
		t.Fatalf("DATA frame for channel %d starting at %v, want channel %d starting at %d",
			h.ch, entries[0].rec.Value, ch, first)
	}
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// intEntries is a batch of n records valued first, first+1, ...
func intEntries(first int64, n int) []batchEntry {
	out := make([]batchEntry, n)
	for i := range out {
		out[i].rec = Record{Value: first + int64(i)}
	}
	return out
}

// wireSenders prepares worker 0's attempt of job (whose sources all sit on
// worker 0 and feed tasks on worker 1) against a stand-in peer, and returns
// the source tasks in index order with their one batched sender each. The
// attempt is never started: the test drives the senders by hand, one
// goroutine per task at most, as the task loop would.
func wireSenders(t *testing.T, job *Job, peer *wirePeer) (*WorkerRun, []*taskRuntime, []*batchedSender) {
	t.Helper()
	r, err := job.PrepareWorkerAttempt(WorkerNetConfig{Local: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Abort)
	r.att.net.setPeers(map[int]string{1: peer.addr()})
	tasks := append([]*taskRuntime(nil), r.att.tasks...)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id.Index < tasks[j].id.Index })
	senders := make([]*batchedSender, len(tasks))
	for i, rt := range tasks {
		senders[i] = rt.senders[0].(*batchedSender)
	}
	return r, tasks, senders
}

// TestWireMirrorShipsInRequestOrder drives the sender-side mirror by hand:
// two co-located senders park frames for one remote task (A1, B1, then A2
// once A1 has shipped), and grants of exactly the oldest parked frame's
// record count ship them in exactly request order. A grant for an unknown
// task or with a non-positive count stays a counted stray. A grant that is
// partial, oversized or finds nothing parked breaks the protocol: it fails
// the attempt with ErrCreditMismatch, severs the connection and ships
// nothing.
func TestWireMirrorShipsInRequestOrder(t *testing.T) {
	snk := dataflow.TaskID{Op: "snk", Index: 0}
	credit := func(task dataflow.TaskID, n int64) Frame {
		return Frame{Type: FrameCredit, Payload: appendCredit(nil, task, n)}
	}
	setup := func(t *testing.T) (*wirePeer, *WorkerRun, []*batchedSender, func(i int, first int64, n int)) {
		peer := newWirePeer(t, false)
		job := fanInWireJob(t, JobOptions{RecordsPerSource: 1, ChannelCapacity: 4, BatchSize: 4})
		r, tasks, senders := wireSenders(t, job, peer)
		ship := func(i int, first int64, n int) {
			t.Helper()
			if !senders[i].remote[0].ship(tasks[i], 0, senders[i].edge.chans[0], intEntries(first, n)) {
				t.Fatal("ship failed")
			}
			peer.next(t, FrameCreditReq)
		}
		return peer, r, senders, ship
	}

	peer, r, senders, ship := setup(t)
	node := r.att.net.nodes[0]
	chA, chB := senders[0].edge.chans[0], senders[1].edge.chans[0]
	grant := func(task dataflow.TaskID, n int64) {
		t.Helper()
		if !node.handleFrame(1, credit(task, n)) {
			t.Fatalf("credit grant %v/%d severed the connection", task, n)
		}
	}
	ship(0, 10, 4) // A1
	ship(1, 20, 2) // B1
	grant(snk, 4)
	peer.nextData(t, chA, 10)
	ship(0, 30, 4) // A2, behind B1
	grant(snk, 2)
	peer.nextData(t, chB, 20)
	grant(snk, 4)
	peer.nextData(t, chA, 30)
	if parked := len(node.mirrors[snk].q.parked); parked != 0 {
		t.Errorf("%d frames parked after every grant was spent, want 0", parked)
	}
	before := r.att.net.unexpectedFrames.Value()
	grant(dataflow.TaskID{Op: "ghost"}, 4)
	grant(snk, 0)
	if got := r.att.net.unexpectedFrames.Value() - before; got != 2 {
		t.Errorf("stray grants counted %d times, want 2", got)
	}
	if err := r.att.net.fatalErr(); err != nil {
		t.Errorf("a stray grant failed the attempt: %v", err)
	}

	for _, tc := range []struct {
		name  string
		park  int // records in the one parked frame; 0 parks nothing
		grant int64
	}{
		{"partial", 4, 2},
		{"oversized", 2, 4},
		{"nothing parked", 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, r, _, ship := setup(t)
			node := r.att.net.nodes[0]
			if tc.park > 0 {
				ship(0, 10, tc.park)
			}
			if node.handleFrame(1, credit(snk, tc.grant)) {
				t.Error("a mismatched grant left the connection open")
			}
			if err := r.att.net.fatalErr(); !errors.Is(err, ErrCreditMismatch) {
				t.Errorf("attempt error = %v, want ErrCreditMismatch", err)
			}
			if got := r.att.net.dataBatches.Value(); got != 0 {
				t.Errorf("a mismatched grant shipped %d frames", got)
			}
			if want, got := min(tc.park, 1), len(node.mirrors[snk].q.parked); got != want {
				t.Errorf("%d frames parked after a mismatched grant, want %d", got, want)
			}
		})
	}
}

// TestWireMarkerFollowsParkedFrame: a barrier (or EOF) is queued for the
// writer only after the channel's parked DATA frame has shipped, so it can
// never overtake the data it closes. The barrier call must block on the
// parked frame — a counted credit stall — and the wire must show the frame
// first.
func TestWireMarkerFollowsParkedFrame(t *testing.T) {
	peer := newWirePeer(t, false)
	job := wireJob(t, nil, JobOptions{RecordsPerSource: 1, ChannelCapacity: 4, BatchSize: 4, BatchLinger: -1})
	r, _, senders := wireSenders(t, job, peer)
	node := r.att.net.nodes[0]
	s := senders[0]
	for i := int64(0); i < 3; i++ {
		s.send(Record{Value: i})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.barrier(7)
	}()
	peer.next(t, FrameCreditReq)
	waitFor(t, "the barrier to stall on the parked frame", func() bool { return r.att.creditStalls.Value() > 0 })
	node.handleFrame(1, Frame{Type: FrameCredit, Payload: appendCredit(nil, dataflow.TaskID{Op: "snk"}, 3)})
	<-done
	peer.nextData(t, s.edge.chans[0], 0)
	m, err := decodeMark(peer.next(t, FrameBarrier).Payload)
	if err != nil || m.epoch != 7 {
		t.Errorf("barrier frame = %+v, %v; want epoch 7", m, err)
	}
}

// TestWireTwoFramesInFlight: a sender-target pair keeps up to wireParkDepth
// frames parked. Against a peer that grants nothing, the sender flushes two
// batches — two CREDIT_REQs on the wire — and stalls on its third with both
// frames parked. Grants then ship the frames oldest first, each with its own
// records (the second seal must not have overwritten the first), the third
// batch parks as soon as a buffer is vacant, and the barrier follows all
// three.
func TestWireTwoFramesInFlight(t *testing.T) {
	const batch = 4
	peer := newWirePeer(t, false)
	job := wireJob(t, nil, JobOptions{RecordsPerSource: 1, ChannelCapacity: 2 * batch, BatchSize: batch, BatchLinger: -1})
	r, _, senders := wireSenders(t, job, peer)
	node := r.att.net.nodes[0]
	snk := dataflow.TaskID{Op: "snk"}
	s := senders[0]
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < 3*batch; i++ {
			s.send(Record{Value: i})
		}
		s.barrier(7)
	}()
	peer.next(t, FrameCreditReq)
	peer.next(t, FrameCreditReq)
	waitFor(t, "the sender to stall on its third batch", func() bool { return r.att.creditStalls.Value() > 0 })
	select {
	case f := <-peer.frames:
		t.Fatalf("a %s frame reached the wire with both frames parked", frameTypeName(f.Type))
	case <-time.After(50 * time.Millisecond):
	}
	m := node.mirrors[snk]
	m.mu.Lock()
	parked := len(m.q.parked)
	m.mu.Unlock()
	if parked != wireParkDepth {
		t.Fatalf("%d frames parked at the stall, want %d", parked, wireParkDepth)
	}
	grant := func() {
		t.Helper()
		if !node.handleFrame(1, Frame{Type: FrameCredit, Payload: appendCredit(nil, snk, batch)}) {
			t.Fatal("grant severed the connection")
		}
	}
	ch := s.edge.chans[0]
	grant()
	peer.nextData(t, ch, 0)
	peer.next(t, FrameCreditReq) // the third batch, parked in the vacated buffer
	grant()
	peer.nextData(t, ch, batch)
	grant()
	peer.nextData(t, ch, 2*batch)
	<-done
	if mk, err := decodeMark(peer.next(t, FrameBarrier).Payload); err != nil || mk.epoch != 7 {
		t.Errorf("barrier frame = %+v, %v; want epoch 7", mk, err)
	}
	if err := r.att.net.fatalErr(); err != nil {
		t.Errorf("attempt failed: %v", err)
	}
}

// TestWireParkAllocs pins the steady state of a remote flush: sealing a
// batch into the target's frame, queueing the request, parking, and the
// grant that ships it allocate nothing once the buffers are warm — the
// frame, the mirror's queue and the writer's two buffers are all reused.
func TestWireParkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	peer := newWirePeer(t, true)
	job := wireJob(t, nil, JobOptions{RecordsPerSource: 1})
	r, tasks, senders := wireSenders(t, job, peer)
	node := r.att.net.nodes[0]
	tgt, ch := senders[0].remote[0], senders[0].edge.chans[0]
	entries := intBatch()
	credit := Frame{Type: FrameCredit, Payload: appendCredit(nil, dataflow.TaskID{Op: "snk"}, int64(len(entries)))}
	if got := testing.AllocsPerRun(500, func() {
		if !tgt.ship(tasks[0], 0, ch, entries) || !node.handleFrame(1, credit) {
			t.Fatal("ship or grant failed")
		}
		runtime.Gosched() // AllocsPerRun runs on one P: let the writer take its turn
	}); got != 0 {
		t.Errorf("a parked flush allocates %v times per batch, want 0", got)
	}
	// 501 runs of a request and a data frame each, all through the writer.
	na := r.att.net
	waitFor(t, "the writer to ship all 1002 frames", func() bool { return na.framesSent.Value() >= 1002 })
	if w := na.writes.Value(); w == 0 || w > 1002 {
		t.Errorf("net.writes = %d for 1002 frames", w)
	}
}

// TestWireCleanFinishFlushesWriter: the writer is asynchronous, so a worker
// whose tasks finish has only queued its last DATA and EOF frames. The clean
// path must see them onto the wire before the worker reports and tears its
// sockets down — the upstream worker here finishes first, every time — or
// the downstream worker never sees end of stream.
func TestWireCleanFinishFlushesWriter(t *testing.T) {
	const records = 200
	opts := JobOptions{RecordsPerSource: records, ChannelCapacity: 64, BatchSize: 8}
	j0 := wireJob(t, nil, opts)
	j1 := wireJob(t, nil, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r0, r1 := startWirePair(t, ctx, j0, j1)
	var reports []*WorkerReport
	for _, r := range []*WorkerRun{r0, r1} {
		select {
		case <-r.Done():
		case <-ctx.Done():
			t.Fatal("worker run did not finish: the upstream worker shut down over its unwritten frames")
		}
		rep, err := r.Report()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatalf("worker %d did not complete", rep.Worker)
		}
		reports = append(reports, rep)
	}
	res := assembleResult(reports, runAgg{elapsed: time.Second})
	if res.SinkRecords != records || res.LostRecords != 0 {
		t.Errorf("sink saw %d of %d records, %d lost", res.SinkRecords, records, res.LostRecords)
	}
	c0 := reports[0].Metrics.Counters
	if c0["net.writes"] == 0 || c0["net.writes"] > c0["net.frames_sent"] {
		t.Errorf("net.writes = %d against %d frames sent", c0["net.writes"], c0["net.frames_sent"])
	}
}

// TestWireParkedFramesCannotHoldAndWait is the deadlock regression for
// parked frames: three workers, a source on each feeding both keyed
// partitions (on workers 0 and 1) all-to-all, ChannelCapacity == BatchSize,
// checkpoints on. A sender that acquired credits for one target on its own
// goroutine and then blocked on another's would hold exactly what a third
// sender is waiting for; parked frames hold nothing, so the run must
// complete with every record at the sink.
func TestWireParkedFramesCannotHoldAndWait(t *testing.T) {
	const perSource = 1500
	g := chainGraph(t, []dataflow.Operator{
		{ID: "src", Kind: dataflow.KindSource, Parallelism: 3, Selectivity: 1},
		{ID: "part", Kind: dataflow.KindMap, Parallelism: 2, Selectivity: 1},
		{ID: "sink", Kind: dataflow.KindSink, Parallelism: 1},
	})
	plan := dataflow.NewPlan()
	for i := 0; i < 3; i++ {
		plan.Assign(dataflow.TaskID{Op: "src", Index: i}, i)
	}
	plan.Assign(dataflow.TaskID{Op: "part", Index: 0}, 0)
	plan.Assign(dataflow.TaskID{Op: "part", Index: 1}, 1)
	plan.Assign(dataflow.TaskID{Op: "sink", Index: 0}, 2)
	factories := map[dataflow.OperatorID]Factory{
		"src": func(*TaskContext) (any, error) {
			return NewSource(func(task, i int64) (Record, bool) {
				return Record{Key: fmt.Sprintf("k%d", (task+i)%11), Value: i, Time: i}, true
			}), nil
		},
		"part": func(*TaskContext) (any, error) { return NewMap(func(r Record) Record { return r }), nil },
		"sink": func(*TaskContext) (any, error) { return NewSink(nil), nil },
	}
	job, err := NewJob(g, plan, bigWorkers(3, 4), factories, JobOptions{
		RecordsPerSource: perSource,
		SnapshotInterval: 100,
		Transport:        TransportNetwork,
		ChannelCapacity:  4,
		BatchSize:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *JobResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = job.Run(context.Background())
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("run deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * perSource); res.SourceRecords != want || res.SinkRecords != want || res.LostRecords != 0 {
		t.Errorf("source/sink/lost = %d/%d/%d, want %d/%d/0", res.SourceRecords, res.SinkRecords, res.LostRecords, want, want)
	}
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

// TestWireOversizedCreditRequestFails: a CREDIT_REQ for more records than
// the receiving task's gate holds can never be granted — the sender's frame
// would stay parked and the cluster would stall with heartbeats flowing. A
// scripted peer asks one record past the gate's capacity; the receiving
// worker's attempt must end, promptly, with ErrCreditOverCapacity.
func TestWireOversizedCreditRequestFails(t *testing.T) {
	j1 := wireJob(t, nil, JobOptions{RecordsPerSource: 100})
	r1, err := j1.PrepareWorkerAttempt(WorkerNetConfig{Local: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r1.Start(ctx, map[int]string{0: newWirePeer(t, true).addr()})
	defer func() { r1.Abort(); <-r1.Done() }()

	c, err := net.Dial("tcp", r1.DataAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snk := dataflow.TaskID{Op: "snk", Index: 0}
	capacity := int64(j1.opts.ChannelCapacity)
	for _, f := range []Frame{
		{Type: FrameDataHello, Payload: appendHello(nil, 0, r1.att.no)},
		{Type: FrameCreditReq, Payload: appendCredit(nil, snk, capacity+1)},
	} {
		if err := WriteFrame(c, f); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-r1.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("an oversized credit request left the worker running: its sender would wait forever")
	}
	if _, err := r1.Report(); !errors.Is(err, ErrCreditOverCapacity) {
		t.Fatalf("report error = %v, want ErrCreditOverCapacity", err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("the connection that sent the oversized request was left open (read: %v)", err)
	}
}

// TestWireDefaultEconomics pins what the network transport's defaults cost
// on the wire, without a clock: a fan-out of two sources into two sinks, each
// task on its own worker, flushes by size only (BatchLinger < 0), so every
// sender-target pair ships ceil(records/256) DATA frames and each is granted
// by one CREDIT frame. The in-memory batched transport keeps its defaults
// (32-record batches, a 64-record gate).
func TestWireDefaultEconomics(t *testing.T) {
	const perSource = 2000 // 1000 per sender-target pair: 3 full frames and one of 232
	run := func(transport string) (*Job, map[string]float64) {
		t.Helper()
		g := chainGraph(t, []dataflow.Operator{
			{ID: "src", Kind: dataflow.KindSource, Parallelism: 2, Selectivity: 1},
			{ID: "snk", Kind: dataflow.KindSink, Parallelism: 2},
		})
		factories := map[dataflow.OperatorID]Factory{
			"src": func(*TaskContext) (any, error) {
				return NewSource(func(_, i int64) (Record, bool) { return Record{Value: i, Time: i}, true }), nil
			},
			"snk": func(*TaskContext) (any, error) { return NewSink(nil), nil },
		}
		job, err := NewJob(g, roundRobinPlan(t, g, 4), bigWorkers(4, 1), factories, JobOptions{
			RecordsPerSource: perSource,
			Transport:        transport,
			BatchLinger:      -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.SinkRecords != 2*perSource {
			t.Fatalf("%s: sink saw %d records, want %d", transport, res.SinkRecords, 2*perSource)
		}
		return job, res.Metrics.Snapshot()
	}
	pairs := 4.0
	perPair := func(size int) float64 { return float64((perSource/2 + size - 1) / size) }

	job, snap := run(TransportNetwork)
	if got := [2]int{job.opts.BatchSize, job.opts.ChannelCapacity}; got != [2]int{DefaultNetworkBatchSize, 4 * DefaultNetworkBatchSize} {
		t.Errorf("network defaults: batch %d, capacity %d; want %d and %d", got[0], got[1], DefaultNetworkBatchSize, 4*DefaultNetworkBatchSize)
	}
	want := pairs * perPair(DefaultNetworkBatchSize)
	for _, name := range []string{"net.data_batches", "net.credit_frames", "exchange.batches"} {
		if snap[name] != want {
			t.Errorf("network: %s = %v, want %v", name, snap[name], want)
		}
	}

	job, snap = run(TransportBatched)
	if got := [2]int{job.opts.BatchSize, job.opts.ChannelCapacity}; got != [2]int{DefaultBatchSize, 64} {
		t.Errorf("batched defaults: batch %d, capacity %d; want %d and 64", got[0], got[1], DefaultBatchSize)
	}
	if want := pairs * perPair(DefaultBatchSize); snap["exchange.batches"] != want || snap["net.data_batches"] != 0 {
		t.Errorf("batched: exchange.batches = %v and net.data_batches = %v, want %v and 0", snap["exchange.batches"], snap["net.data_batches"], want)
	}
}
