package engine

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/telemetry"
)

// taskRuntime is one deployed task: its identity, placement, exchange
// endpoints and the mutable state of its processing loop. Every field is
// owned by the task's goroutine except inbox (senders write) and the
// resources/attempt pointers (internally synchronized).
type taskRuntime struct {
	id      dataflow.TaskID
	worker  int
	res     *WorkerResources
	att     *attempt
	inbox   chan message
	numIn   int
	outs    []*downstreamEdge
	senders []edgeSender
	// emitFn is the bound emit method, materialized once at wiring time so
	// per-record Process calls don't allocate a fresh method value.
	emitFn func(Record)
	// gate is this task's receive-side credit gate (nil under the unary
	// transport); dequeuing a batch from the inbox releases its credits.
	gate    *creditGate
	op      any // Operator or Source
	ctx     *TaskContext
	cpuCost float64
	isSink  bool

	// cpuShard/netShard are this task's private shards of the worker's CPU
	// and network meters. Only this task's goroutine strikes them (a fused
	// member is driven by its chain head's goroutine, preserving the
	// single-writer contract).
	cpuShard *MeterShard
	netShard *MeterShard

	// fusedIn marks a task that runs inline on its chain head's goroutine
	// (it gets no goroutine of its own); fused lists this task's directly
	// fused downstream members, and fusedOut counts records this task handed
	// to fused members without an exchange hop.
	fusedIn  bool
	fused    []*taskRuntime
	fusedOut int64

	// chanWM holds the max event time seen per incoming channel; the
	// task's watermark is their minimum. EOF lifts a channel to +inf.
	chanWM    []int64
	watermark int64

	// Barrier alignment state: chanEOF marks exhausted channels (an EOF'd
	// channel counts as aligned), chanSeen marks channels whose barrier for
	// the in-flight epoch has arrived, alignBuf holds messages that arrived
	// on already-aligned channels (they belong to the next epoch), and
	// queue holds released messages awaiting processing.
	chanEOF    []bool
	chanSeen   []bool
	aligning   bool
	alignEpoch int64
	alignBuf   []message
	queue      []message

	// epoch is the last snapshot epoch this task completed.
	epoch int64
	// killEpoch/killIdx arm a worker-kill fault for this task (-1 = none).
	killEpoch int64
	killIdx   int
	// srcOffset is the restored source position (next record index).
	srcOffset int64
	// restore carries the snapshot to apply during wiring (rr positions).
	restore *TaskSnapshot

	// dead marks a degraded task: it drains and discards its input.
	dead bool
	// aborted marks that this attempt is being torn down for recovery.
	aborted bool
	// failure holds the first genuine operator error.
	failure error

	// serviceDebt accumulates per-record CPU service time that has not yet
	// been slept off; sleeps are batched to keep timer overhead low.
	serviceDebt float64

	// lat is the task's end-to-end latency histogram (nil when telemetry is
	// off or the task is a source). ingestNS is the source stamp inherited
	// from the message currently being processed; emitted records carry it
	// downstream, and Close-time flushes reuse the last stamp seen.
	lat      *telemetry.Histogram
	ingestNS int64
	// batchSizeH observes flushed batch sizes (nil when telemetry is off or
	// the transport is unary).
	batchSizeH *telemetry.Histogram
	// clock is the time (since lingerEpoch) this task's goroutine last read,
	// which batched senders check linger against instead of reading the clock
	// per record (see batchedSender.send). Fused members share their chain
	// head's — one goroutine, one clock. Nil when nothing lingers: the unary
	// transport, or a negative BatchLinger.
	clock *time.Duration

	recordsIn, recordsOut, bytesOut int64
	busy, bp                        time.Duration
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// lingerEpoch is the zero of the tasks' cached linger clocks. Linger is an
// interval, so the cache keeps a monotonic reading — time.Since reads one
// clock where time.Now reads two.
var lingerEpoch = time.Now()

// readClock refreshes the cached linger clock. The task loops call it
// wherever the goroutine has just waited or dequeued — time has passed, and
// a clock read is cheap next to the wait; a no-op without lingering senders.
func (rt *taskRuntime) readClock() {
	if rt.clock != nil {
		*rt.clock = time.Since(lingerEpoch)
	}
}

// shareClock gives rt and every member fused behind it the same cached clock.
func (rt *taskRuntime) shareClock(clock *time.Duration) {
	rt.clock = clock
	for _, m := range rt.fused {
		m.shareClock(clock)
	}
}

// observe updates the per-channel watermark state for an arriving message.
func (rt *taskRuntime) observe(msg message) {
	if msg.eof {
		rt.chanWM[msg.ch] = maxInt64
	} else if msg.rec.Time > rt.chanWM[msg.ch] {
		rt.chanWM[msg.ch] = msg.rec.Time
	} else {
		return
	}
	rt.refreshWatermark()
}

// refreshWatermark recomputes the task watermark as the minimum over its
// per-channel watermarks.
func (rt *taskRuntime) refreshWatermark() {
	wm := int64(maxInt64)
	for _, w := range rt.chanWM {
		if w < wm {
			wm = w
		}
	}
	rt.watermark = wm
}

// emit fans one record out to every out-edge through the transport's
// sender endpoints.
func (rt *taskRuntime) emit(rec Record) {
	for _, s := range rt.senders {
		if rt.aborted {
			return
		}
		s.send(rec)
	}
}

// forwardBarrier flushes pending batches and broadcasts a checkpoint
// barrier on every out-edge.
func (rt *taskRuntime) forwardBarrier(epoch int64) {
	for _, s := range rt.senders {
		if rt.aborted {
			return
		}
		s.barrier(epoch)
	}
}

// processBatch runs a batch message through the operator entry by entry,
// without materializing per-record messages. The batch's credits were
// already released when the message left the inbox (see runOperator), so
// upstream senders make progress while the entries are processed. Busy time
// is clocked once around the whole batch — amortizing the timer reads is
// part of the batched transport's per-record saving.
func (a *attempt) processBatch(rt *taskRuntime, opr Operator, msg message) {
	t0 := a.clk()
	bpBefore := rt.bp
	for i := range msg.batch {
		e := &msg.batch[i]
		rt.observe(message{rec: e.rec, ch: msg.ch})
		if rt.failure != nil {
			continue // drain-and-discard after a failure
		}
		if rt.dead {
			a.lost.Add(1)
			continue
		}
		a.processRecord(rt, opr, e.rec, msg.in, e.ingest, false)
		if rt.aborted {
			return
		}
	}
	rt.busy += a.clk.Since(t0) - (rt.bp - bpBefore)
	// One coalesced draw pays the whole batch's striked CPU cost.
	rt.cpuShard.Draw()
	putBatch(msg.batch)
}

// processRecord runs one input record through the operator: fault hooks,
// the CPU service charge, the operator itself, and busy/latency accounting.
// Callers have already updated watermarks and drain gating state. timed
// selects per-record busy clocking (unary path); batch callers clock the
// whole batch instead.
func (a *attempt) processRecord(rt *taskRuntime, opr Operator, rec Record, in int, ingest int64, timed bool) {
	rt.recordsIn++
	if d := a.faults.stallFor(rt.id, rt.recordsIn); d > 0 {
		time.Sleep(d)
	}
	var t0 time.Time
	var bpBefore time.Duration
	if timed {
		t0 = a.clk()
		bpBefore = rt.bp
	}
	if ingest > 0 {
		rt.ingestNS = ingest
	}
	rt.chargeCPU(rt.cpuCost)
	if err := opr.Process(rec, in, rt.emitFn); err != nil {
		rt.failure = err
		return
	}
	if timed {
		// Useful time excludes downstream backpressure accumulated inside
		// emit, matching how Flink separates busy from backpressured time.
		rt.busy += a.clk.Since(t0) - (rt.bp - bpBefore)
	}
	if ingest > 0 && rt.lat != nil {
		// End-to-end latency: source emission to the end of this
		// operator's processing (including any backpressure en route).
		rt.lat.Observe(float64(a.clk().UnixNano()-ingest) / 1e9)
	}
	if rt.aborted {
		return
	}
	if a.faults.shouldCrash(rt.id, rt.recordsIn) {
		if a.trigger(FaultCrashTask, rt, rt.epoch, rt.recordsIn, -1) {
			rt.aborted = true
			return
		}
		rt.dead = true
	}
}

// serviceSleepBatch is the minimum accumulated service time before the task
// actually sleeps; smaller values are more faithful but timer-bound.
const serviceSleepBatch = 100e-6 // seconds

// chargeCPU models the per-record compute cost: the record occupies this
// task's thread for cost seconds (service time), and the cost is drawn from
// the worker's shared CPU meter so that co-located tasks whose aggregate
// demand exceeds the worker's cores experience additional slowdown — the
// contention effect CAPS placement avoids.
func (rt *taskRuntime) chargeCPU(cost float64) {
	if cost <= 0 {
		return
	}
	// Strike the task's private shard (one plain add, one atomic store) and
	// coalesce the bucket draw with the batched service sleep, so the meter
	// mutex leaves the per-record path entirely.
	rt.cpuShard.Strike(cost)
	rt.serviceDebt += cost
	if rt.serviceDebt >= serviceSleepBatch {
		d := time.Duration(rt.serviceDebt * float64(time.Second))
		rt.serviceDebt = 0
		rt.cpuShard.Draw()
		time.Sleep(d)
		rt.readClock()
	}
}

// runSource drives a source task at its configured rate, injecting
// checkpoint barriers every SnapshotInterval records. A restored source
// fast-forwards its generator through the replayed prefix so the generator's
// internal state — and therefore the rest of the stream — matches the
// original run exactly. Rate pacing always follows the wall clock; the
// attempt clock only stamps statistics.
func (a *attempt) runSource(ctx context.Context, rt *taskRuntime, src Source) error {
	op := a.j.graph.Operator(rt.id.Op)
	rate := 0.0
	if r, ok := a.j.opts.SourceRate[rt.id.Op]; ok && r > 0 {
		rate = r / float64(op.Parallelism)
	}
	interval := a.j.opts.SnapshotInterval
	for i := int64(0); i < rt.srcOffset; i++ {
		if _, ok := src.Next(i); !ok {
			break
		}
	}
	// With telemetry attached every record takes its own clock stamp — it
	// doubles as the ingest time end-to-end latency is measured from. With
	// telemetry off, busy time is instead clocked over contiguous runs of
	// records: a span opens lazily at the first record after an
	// interruption (pacing wait, stall, barrier) and closes at the next
	// one, which telescopes to the same total while keeping the per-record
	// hot path free of clock reads.
	stamped := a.j.opts.Telemetry != nil
	var runT0 time.Time
	var runBP time.Duration
	closeRun := func() {
		if !runT0.IsZero() {
			rt.busy += a.clk.Since(runT0) - (rt.bp - runBP)
			runT0 = time.Time{}
		}
	}
	defer closeRun()
	start := time.Now()
	for i := rt.srcOffset; i < a.j.opts.RecordsPerSource; i++ {
		if ctx.Err() != nil || rt.aborted {
			break
		}
		if rate > 0 {
			due := start.Add(time.Duration(float64(i-rt.srcOffset) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				closeRun()
				select {
				case <-time.After(d):
				case <-ctx.Done():
				case <-rt.att.abort:
					rt.aborted = true
				}
				rt.readClock()
			}
		}
		if rt.aborted {
			return nil
		}
		rec, ok := src.Next(i)
		if !ok {
			break
		}
		if d := a.faults.stallFor(rt.id, i+1); d > 0 {
			closeRun()
			time.Sleep(d)
		}
		if stamped {
			t0 := a.clk()
			rt.ingestNS = t0.UnixNano()
			rt.chargeCPU(rt.cpuCost)
			bpBefore := rt.bp
			rt.emit(rec)
			rt.busy += a.clk.Since(t0) - (rt.bp - bpBefore)
		} else {
			if runT0.IsZero() {
				runT0 = a.clk()
				runBP = rt.bp
			}
			rt.chargeCPU(rt.cpuCost)
			rt.emit(rec)
		}
		if rt.aborted {
			return nil
		}
		if interval > 0 && (i+1)%interval == 0 {
			closeRun()
			epoch := (i + 1) / interval
			if a.coord.noteStarted(epoch) {
				a.j.opts.Telemetry.Tracer().Emit(telemetry.Event{
					Kind:  telemetry.EventCheckpointStart,
					Epoch: epoch,
					Op:    string(rt.id.Op),
				})
			}
			if err := a.snapshotTask(rt, epoch, i+1); err != nil {
				return err
			}
			rt.forwardBarrier(epoch)
			rt.epoch = epoch
			if rt.aborted {
				return nil
			}
			if rt.killEpoch >= 0 && epoch >= rt.killEpoch {
				if a.trigger(FaultKillWorker, rt, epoch, i+1, rt.killIdx) {
					rt.aborted = true
					return nil
				}
				// Degraded: this source stops emitting; the rest of its
				// records are lost throughput.
				a.lost.Add(a.j.opts.RecordsPerSource - (i + 1))
				rt.dead = true
				break
			}
		}
	}
	if rt.aborted {
		return nil
	}
	rt.finish(nil)
	return nil
}

// alignmentComplete reports whether every live channel has delivered the
// in-flight barrier (EOF'd channels count as aligned).
func (rt *taskRuntime) alignmentComplete() bool {
	for i := range rt.chanSeen {
		if !rt.chanSeen[i] && !rt.chanEOF[i] {
			return false
		}
	}
	return true
}

// completeAlignment fires when the in-flight barrier has arrived on every
// live channel: snapshot, forward the barrier downstream, release held-back
// messages, then honor any epoch-aligned worker kill.
func (a *attempt) completeAlignment(rt *taskRuntime) error {
	epoch := rt.alignEpoch
	rt.aligning = false
	for i := range rt.chanSeen {
		rt.chanSeen[i] = false
	}
	// Held-back messages arrived after older queued ones; keep FIFO order
	// per channel by appending them behind the existing queue.
	rt.queue = append(rt.queue, rt.alignBuf...)
	rt.alignBuf = nil
	if !rt.dead && rt.failure == nil {
		if err := a.snapshotTask(rt, epoch, 0); err != nil {
			return err
		}
	}
	rt.epoch = epoch
	rt.forwardBarrier(epoch)
	if rt.aborted {
		return nil
	}
	if rt.killEpoch >= 0 && epoch >= rt.killEpoch && !rt.dead {
		if a.trigger(FaultKillWorker, rt, epoch, rt.recordsIn, rt.killIdx) {
			rt.aborted = true
			return nil
		}
		rt.dead = true
	}
	return nil
}

// runOperator drives a non-source task: consume the inbox until every
// upstream channel has delivered EOF, aligning on checkpoint barriers along
// the way. Batch messages release their credits the moment they leave the
// inbox — the same point a unary record frees its inbox slot, and the only
// release point that cannot deadlock alignment, since every sender to this
// task shares one gate and a pre-barrier flush must be able to acquire —
// and are then either processed inline or held whole in the alignment
// buffer. After an operator failure — or once the task is degraded by an
// unrecovered fault — the task keeps draining (and discarding) its inbox so
// upstream senders blocked on the full channel cannot deadlock the job;
// barriers are still forwarded so live tasks keep checkpointing around the
// corpse.
func (a *attempt) runOperator(rt *taskRuntime) error {
	opr, ok := rt.op.(Operator)
	if !ok {
		return fmt.Errorf("unexpected instance type %T", rt.op)
	}
	remaining := rt.numIn
	for remaining > 0 {
		var msg message
		if len(rt.queue) > 0 {
			msg, rt.queue = rt.queue[0], rt.queue[1:]
		} else {
			select {
			case msg = <-rt.inbox:
			case <-rt.att.abort:
				rt.aborted = true
				return nil
			}
			if rt.gate != nil && len(msg.batch) > 0 {
				rt.gate.release(int64(len(msg.batch)))
			}
			rt.readClock()
		}
		if rt.aligning && rt.chanSeen[msg.ch] {
			// This channel already delivered the in-flight barrier:
			// anything after it belongs to the next epoch. Batch messages
			// are held whole (their credits are already back).
			rt.alignBuf = append(rt.alignBuf, msg)
			continue
		}
		if len(msg.batch) > 0 {
			a.processBatch(rt, opr, msg)
			if rt.aborted {
				return nil
			}
			continue
		}
		if msg.barrier {
			if !rt.aligning {
				rt.aligning = true
				rt.alignEpoch = msg.epoch
			}
			rt.chanSeen[msg.ch] = true
			if rt.alignmentComplete() {
				if err := a.completeAlignment(rt); err != nil {
					rt.failure = err
				}
				if rt.aborted {
					return nil
				}
			}
			continue
		}
		if msg.eof {
			rt.chanEOF[msg.ch] = true
			remaining--
			rt.observe(msg)
			if rt.aligning && rt.alignmentComplete() {
				if err := a.completeAlignment(rt); err != nil {
					rt.failure = err
				}
				if rt.aborted {
					return nil
				}
			}
			continue
		}
		rt.observe(msg)
		if rt.failure != nil {
			continue // drain-and-discard after a failure
		}
		if rt.dead {
			a.lost.Add(1)
			continue
		}
		a.processRecord(rt, opr, msg.rec, msg.in, msg.ingest, true)
		if rt.aborted {
			return nil
		}
	}
	if rt.aborted {
		return nil
	}
	if rt.failure != nil {
		rt.finish(nil)
		return rt.failure
	}
	if rt.dead {
		rt.finish(nil)
		return nil
	}
	rt.finish(opr)
	return rt.failure
}

// finish flushes the operator (if any), then flushes pending batches and
// propagates EOF downstream.
func (rt *taskRuntime) finish(opr Operator) {
	rt.cpuShard.Draw() // settle any CPU cost striked since the last draw
	if opr != nil {
		clk := rt.att.clk
		t0 := clk()
		// A flush that fails (a join's buffered record that does not decode)
		// fails the task like a Process error would.
		if err := opr.Close(rt.emitFn); err != nil && rt.failure == nil {
			rt.failure = err
		}
		rt.busy += clk.Since(t0)
	}
	for _, s := range rt.senders {
		if rt.aborted {
			return
		}
		s.eof()
	}
}
