package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/statebackend"
)

// This file is the engine's data-plane exchange layer: how records move
// between task inboxes. A transport decides the wire discipline on every
// edge; the task loop (task.go) and the job lifecycle (runtime.go) are
// transport-agnostic.
//
// Two disciplines exist, under three names — "network" is the batched
// discipline with cross-worker targets shipped as TCP frames
// (netexchange.go):
//
//   - unary: one message per record, blocking on the receiver's bounded
//     inbox. This is the reference semantics — backpressure is the channel
//     itself.
//   - batched: records coalesce into size/time-bounded batches and each
//     batch must acquire one credit per record from the receiver before it
//     may be sent. Credits are released when the receiver dequeues the
//     batch, so the number of records in flight toward a task is bounded by
//     the same ChannelCapacity the unary transport enforces — batching
//     amortizes channel operations and token-bucket draws without
//     unbounded buffering, and genuine backpressure (the signal the CAPS
//     cost model consumes) is preserved.

// Transport names accepted by JobOptions.Transport and the CLI -transport
// flags.
const (
	TransportUnary   = "unary"
	TransportBatched = "batched"
	TransportNetwork = "network"
)

// TransportNames lists the supported transports in CLI-help order.
func TransportNames() []string {
	return []string{TransportUnary, TransportBatched, TransportNetwork}
}

const (
	// DefaultBatchSize is the batched transport's per-target flush
	// threshold when JobOptions.BatchSize is zero.
	DefaultBatchSize = 32
	// DefaultNetworkBatchSize is the network transport's: a DATA frame and
	// its credit round trip carry this many records.
	DefaultNetworkBatchSize = 256
	// DefaultNetworkChannelCapacity is the network transport's gate
	// (JobOptions.ChannelCapacity) when none is set: four default frames,
	// room for the wireParkDepth frames each of two senders keeps in flight.
	// In memory the default stays 64.
	DefaultNetworkChannelCapacity = 4 * DefaultNetworkBatchSize
	// DefaultBatchLinger bounds how long a partial batch may wait for more
	// records when JobOptions.BatchLinger is zero. Negative linger disables
	// time-based flushing entirely.
	DefaultBatchLinger = time.Millisecond
)

// transport builds the per-edge exchange endpoints for one job: a
// receiver-side gate (flow control) and a sender-side endpoint per
// (task, out-edge).
type transport interface {
	// newGate builds the receiver-side flow-control state for one task, or
	// nil when the transport's channel discipline alone bounds buffering.
	newGate(capacity int) *creditGate
	// newSender builds the exchange endpoint task rt uses to feed edge.
	newSender(rt *taskRuntime, edge *downstreamEdge) edgeSender
}

// transportFor resolves JobOptions into a transport. Batch parameters must
// already be defaulted/clamped by NewJob.
func transportFor(opts JobOptions) (transport, error) {
	switch opts.Transport {
	case TransportUnary:
		return unaryTransport{}, nil
	case TransportBatched, TransportNetwork:
		return &batchedTransport{size: opts.BatchSize, linger: opts.BatchLinger, wire: opts.Transport == TransportNetwork}, nil
	default:
		return nil, fmt.Errorf("engine: unknown transport %q (have %v)", opts.Transport, TransportNames())
	}
}

// edgeSender is the sender side of one (task, out-edge) pair. All methods
// run on the owning task's goroutine; on abort they set rt.aborted and
// return, mirroring the task-loop convention.
type edgeSender interface {
	// send routes one record to its partition, blocking under
	// backpressure.
	send(rec Record)
	// flush pushes any pending partial batches downstream.
	flush()
	// barrier flushes, then broadcasts a checkpoint barrier to every
	// target. Barriers are markers, not data: they bypass partitioning and
	// are not counted in records/bytes out.
	barrier(epoch int64)
	// eof flushes, then broadcasts end-of-stream to every target.
	eof()
}

// message is what flows through task inboxes.
type message struct {
	rec     Record
	in      int // input index (position of the upstream operator)
	ch      int // receiver-side channel index, for watermark tracking
	eof     bool
	barrier bool  // checkpoint barrier marker
	epoch   int64 // barrier epoch
	// ingest is the wall-clock UnixNano stamp of the source emission this
	// message descends from; receivers derive end-to-end latency from it.
	ingest int64
	// batch carries a coalesced run of records (batched transport). A
	// non-empty batch message holds no inline rec; the receiver releases the
	// batch's credits at dequeue time and processes the entries inline.
	batch []batchEntry
}

// batchEntry is one record inside a batch message, with the source ingest
// stamp it would have carried as a unary message.
type batchEntry struct {
	rec    Record
	ingest int64
}

// batchPool recycles batch-entry slices: receivers return a slice once its
// entries are fully processed, senders claim one at full capacity when a new
// batch starts. Entries are cleared on return so pooled slices do not pin
// record payloads.
var batchPool sync.Pool

func getBatch(capacity int) []batchEntry {
	if v := batchPool.Get(); v != nil {
		if b := v.([]batchEntry); cap(b) >= capacity {
			return b[:0]
		}
	}
	return make([]batchEntry, 0, capacity)
}

func putBatch(b []batchEntry) {
	if cap(b) == 0 {
		return
	}
	for i := range b {
		b[i] = batchEntry{}
	}
	batchPool.Put(b[:0]) //nolint:staticcheck // slice-header box is far smaller than the slice it recycles
}

type downstreamEdge struct {
	// inboxes of the downstream tasks, parallel to their worker indices.
	inboxes []chan message
	workers []int
	// gates holds, per target, the receiver's credit gate (nil under the
	// unary transport).
	gates []*creditGate
	// chans holds, per target, this sender's channel index at the
	// receiver (receivers track one watermark per incoming channel).
	chans []int
	// tasks holds, per target, the receiving task's identity — the
	// address data frames carry under the network transport.
	tasks []dataflow.TaskID
	// inIdx is this edge's input index at the downstream operator.
	inIdx int
	// groups is the job's key-group count: keyed records route by key-group
	// (hash → group → owning task), so the record→task mapping is exactly
	// the statebackend's state→task mapping and a rescale moves records and
	// state together. Zero falls back to direct hash-mod-n routing.
	groups int
	rr     int
	// fuseTo, when non-nil, marks this edge as fused: its single same-worker
	// target runs inline on the sender's goroutine (see fuse.go) and the
	// transport's sender endpoint is replaced by a fusedSender.
	fuseTo *taskRuntime
}

// route picks the target index for one record: key-group partitioning for
// keyed records (statebackend.KeyHash → key-group → the task owning that
// group, the hash and the formula of statebackend.KeyGroupOf and TaskForGroup,
// so routing and state partitioning can never disagree), round-robin
// otherwise. The rr cursor lives on the edge so checkpoints can snapshot and
// restore it mid-cycle.
func (e *downstreamEdge) route(rec Record) int {
	n := len(e.inboxes)
	if rec.Key != "" {
		if e.groups > 0 {
			g := int(statebackend.KeyHash(rec.Key) % uint32(e.groups))
			return g * n / e.groups
		}
		return int(statebackend.KeyHash(rec.Key) % uint32(n))
	}
	idx := e.rr % n
	e.rr++
	return idx
}

// recordSize returns the record's accounted byte size.
func recordSize(rec Record) int64 {
	if rec.Size == 0 {
		return DefaultRecordSize
	}
	return int64(rec.Size)
}

// ---------------------------------------------------------------------------
// unary transport: one bounded-channel send per record.

// unaryTransport stays a separate implementation on purpose: it is the
// reference every equivalence battery, the golden test and the benchmark's
// reference run compare the batched and network transports against.
type unaryTransport struct{}

func (unaryTransport) newGate(int) *creditGate { return nil }
func (unaryTransport) newSender(rt *taskRuntime, edge *downstreamEdge) edgeSender {
	return &unarySender{rt: rt, edge: edge}
}

type unarySender struct {
	rt   *taskRuntime
	edge *downstreamEdge
}

// send partitions rec across the edge, charging network bytes for
// cross-worker hops and accounting backpressure time. Sends abort promptly
// when the attempt is torn down for recovery.
func (s *unarySender) send(rec Record) {
	rt := s.rt
	if rt.aborted {
		return
	}
	idx := s.edge.route(rec)
	size := recordSize(rec)
	if s.edge.workers[idx] != rt.worker {
		rt.netShard.Strike(float64(size))
		rt.netShard.Draw()
	}
	clk := rt.att.clk
	t0 := clk()
	select {
	case s.edge.inboxes[idx] <- message{rec: rec, in: s.edge.inIdx, ch: s.edge.chans[idx], ingest: rt.ingestNS}:
	case <-rt.att.abort:
		rt.aborted = true
		return
	}
	rt.bp += clk.Since(t0)
	rt.bytesOut += size
	rt.recordsOut++
}

func (s *unarySender) flush() {}

func (s *unarySender) barrier(epoch int64) {
	s.broadcast(message{barrier: true, epoch: epoch})
}

func (s *unarySender) eof() {
	s.broadcast(message{eof: true})
}

func (s *unarySender) broadcast(tmpl message) {
	rt := s.rt
	for i, inbox := range s.edge.inboxes {
		if rt.aborted {
			return
		}
		tmpl.ch = s.edge.chans[i]
		select {
		case inbox <- tmpl:
		case <-rt.att.abort:
			rt.aborted = true
			return
		}
	}
}

// ---------------------------------------------------------------------------
// batched transport: size/linger-bounded batches under credit flow control.

type batchedTransport struct {
	size   int
	linger time.Duration
	// wire ships cross-worker targets as frames over the attempt's TCP data
	// plane (TransportNetwork) instead of through in-memory inboxes.
	wire bool
}

func (t *batchedTransport) newGate(capacity int) *creditGate {
	return newCreditGate(int64(capacity))
}

func (t *batchedTransport) newSender(rt *taskRuntime, edge *downstreamEdge) edgeSender {
	n := len(edge.inboxes)
	s := &batchedSender{
		rt:      rt,
		edge:    edge,
		size:    t.size,
		linger:  t.linger,
		pending: make([][]batchEntry, n),
		netDue:  make([]int64, n),
		firstAt: make([]time.Duration, n),
	}
	if t.wire {
		s.remote = rt.att.net.remoteTargets(rt, edge)
	}
	return s
}

type batchedSender struct {
	rt     *taskRuntime
	edge   *downstreamEdge
	size   int
	linger time.Duration
	// pending accumulates routed records per target until a flush; netDue
	// is the cross-worker byte count awaiting one coalesced Net draw, and
	// firstAt is the arrival, on the task's linger clock, of each target's
	// oldest pending record (the linger reference point).
	pending [][]batchEntry
	netDue  []int64
	firstAt []time.Duration
	// routed counts records sent, for the linger clock's every-8th refresh.
	routed uint
	// remote, when non-nil, holds per-target wire endpoints (network
	// transport): a non-nil entry ships that target's batches and control
	// markers as frames instead of inbox sends. The credit discipline is
	// unchanged, but the wait moves: the batch is sealed and parked behind a
	// credit request (netTarget.ship) and only the next flush to the same
	// target waits for it.
	remote []*netTarget
}

// send routes rec into its target's pending batch and flushes on size or
// linger expiry. Output counters advance at routing time — not flush time —
// so a barrier snapshot taken just before the pre-barrier flush still
// agrees with the unary transport's counters.
//
// The linger check reads the task's cached clock (taskRuntime.clock), not
// the clock itself: the task refreshes it wherever it has just waited or
// dequeued — which is before every send at low rates, where linger is what
// flushes — and send itself on every 8th record, the backstop for a
// CPU-bound task that never waits, whose batches fill in microseconds and
// flush by size. A batch's reference point is the cached reading: at most
// those 8 records early.
func (s *batchedSender) send(rec Record) {
	rt := s.rt
	if rt.aborted {
		return
	}
	idx := s.edge.route(rec)
	size := recordSize(rec)
	if len(s.pending[idx]) == 0 {
		if s.pending[idx] == nil {
			s.pending[idx] = getBatch(s.size)
		}
		if s.linger >= 0 {
			s.firstAt[idx] = *rt.clock
		}
	}
	s.pending[idx] = append(s.pending[idx], batchEntry{rec: rec, ingest: rt.ingestNS})
	if s.edge.workers[idx] != rt.worker {
		s.netDue[idx] += size
	}
	rt.bytesOut += size
	rt.recordsOut++
	if len(s.pending[idx]) >= s.size {
		s.flushTarget(idx)
		if rt.aborted {
			return
		}
	}
	if s.linger >= 0 {
		if s.routed++; s.routed%8 == 0 {
			rt.readClock()
		}
		now := *rt.clock
		for i := range s.pending {
			if len(s.pending[i]) > 0 && now-s.firstAt[i] >= s.linger {
				s.flushTarget(i)
				if rt.aborted {
					return
				}
			}
		}
	}
}

func (s *batchedSender) flush() {
	for i := range s.pending {
		if len(s.pending[i]) > 0 {
			s.flushTarget(i)
			if s.rt.aborted {
				return
			}
		}
	}
}

func (s *batchedSender) barrier(epoch int64) {
	s.flush()
	if s.rt.aborted {
		return
	}
	s.broadcast(message{barrier: true, epoch: epoch})
}

func (s *batchedSender) eof() {
	s.flush()
	if s.rt.aborted {
		return
	}
	s.broadcast(message{eof: true})
}

// flushTarget ships one target's pending batch: a single coalesced Net
// charge, then one credit acquisition for the whole batch and one channel
// send — or, for a remote target, one sealed frame parked behind its credit
// request.
func (s *batchedSender) flushTarget(idx int) {
	entries := s.pending[idx]
	if len(entries) == 0 {
		return
	}
	s.pending[idx] = nil
	if due := s.netDue[idx]; due > 0 {
		s.netDue[idx] = 0
		s.rt.netShard.Strike(float64(due))
		s.rt.netShard.Draw()
	}
	rt := s.rt
	if rem := s.remoteAt(idx); rem != nil {
		if !rem.ship(rt, s.edge.inIdx, s.edge.chans[idx], entries) {
			rt.aborted = true
			return
		}
		putBatch(entries)
	} else {
		clk := rt.att.clk
		t0 := clk()
		if gate := s.edge.gates[idx]; gate != nil {
			ok, stalled := gate.acquire(int64(len(entries)), rt.att.abort)
			if stalled {
				rt.att.creditStalls.Inc(1)
				rt.att.creditStallT.Add(clk.Since(t0))
				rt.readClock()
			}
			if !ok {
				rt.aborted = true
				return
			}
		}
		select {
		case s.edge.inboxes[idx] <- message{in: s.edge.inIdx, ch: s.edge.chans[idx], batch: entries}:
		case <-rt.att.abort:
			rt.aborted = true
			return
		}
		rt.bp += clk.Since(t0)
	}
	rt.att.batches.Inc(1)
	rt.att.batchRecords.Inc(int64(len(entries)))
	if rt.batchSizeH != nil {
		rt.batchSizeH.Observe(float64(len(entries)))
	}
}

func (s *batchedSender) broadcast(tmpl message) {
	rt := s.rt
	for i, inbox := range s.edge.inboxes {
		if rt.aborted {
			return
		}
		tmpl.ch = s.edge.chans[i]
		if rem := s.remoteAt(i); rem != nil {
			if !rem.control(rt, s.edge.inIdx, s.edge.chans[i], tmpl) {
				rt.aborted = true
				return
			}
			continue
		}
		select {
		case inbox <- tmpl:
		case <-rt.att.abort:
			rt.aborted = true
			return
		}
	}
}

// remoteAt returns the wire endpoint for target idx, or nil when the
// target is local (in-memory inbox).
func (s *batchedSender) remoteAt(idx int) *netTarget {
	if s.remote == nil {
		return nil
	}
	return s.remote[idx]
}

// ---------------------------------------------------------------------------
// credit gate

// creditGate bounds the records in flight toward one receiver. The
// receiver starts with capacity credits; a sender acquires one credit per
// record before shipping a batch and the receiver releases them when it
// dequeues the batch from its inbox. Releasing at dequeue time — not at
// process time — mirrors the unary transport exactly: a record sitting in
// the receiver's alignment buffer during a barrier has left the bounded
// inbox in both disciplines, so alignment cannot starve the un-aligned
// channel's sender into a deadlock.
type creditGate struct {
	// capacity is the gate's initial credit count — the most that can ever
	// be available at once, so any single acquire larger than it can never
	// be satisfied. The network transport refuses a credit request larger
	// than it (ErrCreditOverCapacity).
	capacity int64
	avail    atomic.Int64
	// notify is a capacity-1 wakeup token. A successful acquirer re-signals
	// when credits remain so that concurrent waiters are not lost.
	notify chan struct{}
}

func newCreditGate(capacity int64) *creditGate {
	g := &creditGate{capacity: capacity, notify: make(chan struct{}, 1)}
	g.avail.Store(capacity)
	return g
}

// acquire takes n credits, blocking until the receiver has released enough
// or abort closes. stalled reports whether the caller had to wait at all.
func (g *creditGate) acquire(n int64, abort <-chan struct{}) (ok, stalled bool) {
	for {
		cur := g.avail.Load()
		if cur >= n {
			if g.avail.CompareAndSwap(cur, cur-n) {
				if g.avail.Load() > 0 {
					g.signal() // chain the wakeup to other waiting senders
				}
				return true, stalled
			}
			continue
		}
		stalled = true
		select {
		case <-g.notify:
		case <-abort:
			return false, stalled
		}
	}
}

// release returns n credits and wakes one waiting sender.
func (g *creditGate) release(n int64) {
	g.avail.Add(n)
	g.signal()
}

func (g *creditGate) signal() {
	select {
	case g.notify <- struct{}{}:
	default:
	}
}
