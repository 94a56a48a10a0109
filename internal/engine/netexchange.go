package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// This file is the TCP data plane behind the exchange layer. The network
// transport keeps the batched transport's semantics — size/linger batching,
// credit-based flow control, barrier/EOF markers — but cross-worker edges
// ship frames over real sockets and the receiver's credit gate becomes
// credit-grant frames on the wire:
//
//   - Every worker runs a netNode: one TCP listener plus one outbound
//     connection per peer worker it talks to (data and credit frames share
//     the pair's connection; per-channel FIFO order is the TCP stream).
//   - Same-worker edges stay in-memory batched; only cross-worker targets
//     become netTargets.
//   - For each (receiving task, sending worker) pair the receiver runs a
//     grantor. Credits are demand-driven: a flush seals its batch into a DATA
//     frame, queues a FrameCreditReq for its record count and parks the frame
//     in the sending worker's mirror of the task's gate (up to wireParkDepth
//     frames per sender-target pair at once); the grantor acquires
//     exactly that much from the task's real gate on the sender's behalf, one
//     request at a time in FIFO order, and grants it back as a FrameCredit,
//     which the sending worker's connection reader spends at once on the
//     oldest parked frame, moving it to the peer's write queue. The protocol's
//     state and transitions are wirecredit.go's; this file drives them. A
//     parked frame holds no credit and has not been sent, so a remote sender
//     can never hoard a receiver's gate while it waits on something else, and
//     at most ChannelCapacity records are in flight toward any task, wire
//     included: exactly the in-memory batched transport's bound.
//   - Nothing but a peerConn's writer goroutine touches its socket: tasks,
//     grantors and readers append sealed frames to the peer's queue, and the
//     writer issues one Write for everything queued since its last.
//   - Connection readers never block on delivery: each receiver channel
//     has a pump goroutine that blocks on the task inbox in the reader's
//     stead (see dispatch). A reader stuck on one full inbox would stall
//     the credit requests multiplexed behind it on the same connection and
//     deadlock the cluster under backpressure.
//
// An in-process job under TransportNetwork runs every worker's node in one
// process (loopback sockets); a distributed attempt (attempt.dist != nil)
// instantiates only the local worker's node and learns peer addresses at
// start time (see distrun.go).

const (
	netDialTimeout = 10 * time.Second
	// connReadBuffer sizes a data connection's bufio.Reader: room for about
	// twenty default-sized frames of small records (≈ 6 B each), so under
	// load one read syscall drains many frames.
	connReadBuffer = 32 << 10
)

// remoteTargets builds the wire endpoints of one batched sender: every
// cross-worker target gets a netTarget, and its gate and inbox slots are
// cleared — remote batches wait for credits in the local node's mirror of
// the task's gate and never touch an in-memory channel. It returns nil when
// every target is local.
func (na *netAttempt) remoteTargets(rt *taskRuntime, edge *downstreamEdge) []*netTarget {
	var remote []*netTarget
	node := na.nodes[rt.worker]
	for i, w := range edge.workers {
		if w == rt.worker {
			continue
		}
		if remote == nil {
			remote = make([]*netTarget, len(edge.workers))
		}
		task := edge.tasks[i]
		remote[i] = &netTarget{
			pc:      node.conns[w],
			mirror:  node.mirrors[task],
			task:    task,
			shipped: make(chan struct{}, 1),
		}
		edge.gates[i] = nil
		edge.inboxes[i] = nil
	}
	return remote
}

// crossChan is one cross-worker channel discovered at wiring time: a task
// on worker `from` feeds `task` on worker `to`. Every process of a cluster
// derives the same census from the shared plan.
type crossChan struct {
	from, to int
	task     dataflow.TaskID
}

// netAttempt is one attempt's wire state: the local node(s), peer
// addresses, and lifecycle.
type netAttempt struct {
	a     *attempt
	nodes map[int]*netNode
	// ops resolves the operator name a frame carries, still aliasing the
	// read buffer, to the graph's own OperatorID and its input count without
	// allocating (a map index by string(bytes) does not copy). Immutable
	// after construction.
	ops map[string]wireOp

	addrMu sync.RWMutex
	addrs  map[int]string // worker -> data address

	started   chan struct{} // closed when the attempt starts running
	startOnce sync.Once
	stop      chan struct{} // closed at teardown
	stopOnce  sync.Once
	draining  chan struct{} // closed by drain: writers exit once their queues are empty
	wg        sync.WaitGroup

	pdMu     sync.Mutex
	peerDown map[int]bool

	// fatal is the first unrecoverable wire error (a send failure nobody
	// recovered within dataPlaneEscalation); attempt.run surfaces it after
	// the tasks drain so the attempt fails visibly instead of hanging or —
	// worse — reporting completion with silently dropped records.
	fatalMu sync.Mutex
	fatal   error

	// The wire counters. Each is the one cell its net.* series has for this
	// attempt, declared on the attempt's registry scope: the attempt's own,
	// forwarding every count to the hub's cell when a hub is attached (a
	// scrape mid-run sees the wire moving).
	framesSent, framesRecv *metrics.Counter
	bytesSent, bytesRecv   *metrics.Counter
	writes                 *metrics.Counter // socket writes; framesSent/writes is the coalescing factor
	creditFrames           *metrics.Counter
	dataBatches            *metrics.Counter
	// unexpectedFrames counts stray frames tolerated by handleFrame
	// (unknown task, stale key, non-positive credit count) — skipped, not
	// connection-fatal, but counted so the condition is diagnosable.
	unexpectedFrames *metrics.Counter
	dials            *metrics.Counter // outbound data connections established
	// reconnects counts inbound handshakes from a peer this node had
	// already accepted a connection from within the attempt — a peer
	// re-dialing mid-attempt, which the one-conn-per-pair discipline makes
	// exceptional and worth surfacing.
	reconnects   *metrics.Counter
	encodeErrors *metrics.Counter // local encode failures in ship (a value type with no codec)

	// peerStats tracks frames/bytes per (local node, peer) pair by
	// direction and frame type, feeding the net_peer_frames/net_peer_bytes
	// gauge families. Immutable after construction (built from the same
	// cross census as the grantors); per-cell updates are atomic.
	peerStats map[peerKey]*peerWireStats
	// creditWaitH observes, per remote flush, how long the sender waited for
	// its previous frame to that target to be covered by wire credits (the
	// network transport's backpressure signal; zero when it had already
	// shipped). It is the attempt's own — worker reports carry its snapshot
	// — and a scope of the hub's histogram when a hub is attached (live
	// /metrics). grantWaitH observes the receiver-side dual — how long
	// grantors block acquiring from the task's real gate — straight into the
	// hub, and is nil without one.
	creditWaitH *telemetry.Histogram
	grantWaitH  *telemetry.Histogram
}

// creditWaitSeries names the wire-credit wait histogram: the one wire
// distribution worker reports carry, from which assembleResult derives the
// cluster-wide wait count and p99.
const creditWaitSeries = "net.credit_wait_seconds"

// peerKey identifies one direction-of-view pair: a local node and the
// remote peer it exchanges frames with.
type peerKey struct{ local, peer int }

// peerWireStats counts one (local node, peer) pair's traffic by direction
// and frame type. Indexed by the frame type byte (ReadFrame guarantees
// types below frameTypeEnd).
type peerWireStats struct {
	sentFrames [frameTypeEnd]atomic.Int64
	recvFrames [frameTypeEnd]atomic.Int64
	sentBytes  [frameTypeEnd]atomic.Int64
	recvBytes  [frameTypeEnd]atomic.Int64
}

// note records one frame of `n` wire bytes. Nil-receiver safe: frames
// toward a peer outside the census (strays) are still counted in the
// aggregate counters, just not per-peer.
func (ps *peerWireStats) note(sent bool, typ byte, n int64) {
	if ps == nil {
		return
	}
	if int(typ) >= int(frameTypeEnd) {
		typ = frameInvalid
	}
	if sent {
		ps.sentFrames[typ].Add(1)
		ps.sentBytes[typ].Add(n)
	} else {
		ps.recvFrames[typ].Add(1)
		ps.recvBytes[typ].Add(n)
	}
}

// dataFrameTypes are the frame types that legitimately appear on a data
// connection — the set the per-peer gauge families enumerate.
var dataFrameTypes = []byte{FrameDataHello, FrameData, FrameBarrier, FrameEOF, FrameCredit, FrameCreditReq}

// frameTypeName names a frame type for metric labels.
func frameTypeName(t byte) string {
	switch t {
	case FrameDataHello:
		return "hello"
	case FrameData:
		return "data"
	case FrameBarrier:
		return "barrier"
	case FrameEOF:
		return "eof"
	case FrameCredit:
		return "credit"
	case FrameCreditReq:
		return "credit_req"
	default:
		return "other"
	}
}

func newNetAttempt(a *attempt, byID map[dataflow.TaskID]*taskRuntime, cross []crossChan) (*netAttempt, error) {
	na := &netAttempt{
		a:        a,
		nodes:    make(map[int]*netNode),
		addrs:    make(map[int]string),
		started:  make(chan struct{}),
		stop:     make(chan struct{}),
		draining: make(chan struct{}),
		ops:      make(map[string]wireOp),

		framesSent:       a.reg.Counter("net.frames_sent"),
		framesRecv:       a.reg.Counter("net.frames_received"),
		bytesSent:        a.reg.Counter("net.bytes_sent"),
		bytesRecv:        a.reg.Counter("net.bytes_received"),
		writes:           a.reg.Counter("net.writes"),
		creditFrames:     a.reg.Counter("net.credit_frames"),
		dataBatches:      a.reg.Counter("net.data_batches"),
		unexpectedFrames: a.reg.Counter("net.unexpected_frames"),
		dials:            a.reg.Counter("net.dials"),
		reconnects:       a.reg.Counter("net.reconnects"),
		encodeErrors:     a.reg.Counter("net.encode_errors"),
	}
	for _, op := range a.graph.Operators() {
		na.ops[string(op.ID)] = wireOp{id: op.ID, inputs: len(a.graph.Upstream(op.ID))}
	}
	bind := "127.0.0.1:0"
	var locals []int
	if a.dist != nil {
		locals = []int{a.dist.Local}
		if a.dist.DataBind != "" {
			bind = a.dist.DataBind
		}
	} else {
		for i := range a.j.spec.Workers {
			locals = append(locals, i)
		}
	}
	for _, w := range locals {
		ln, err := net.Listen("tcp", bind)
		if err != nil {
			na.shutdown()
			return nil, fmt.Errorf("engine: worker %d data listener: %w", w, err)
		}
		node := &netNode{
			na:      na,
			worker:  w,
			ln:      ln,
			conns:   make(map[int]*peerConn),
			tasks:   make(map[dataflow.TaskID]*taskRuntime),
			mirrors: make(map[dataflow.TaskID]*creditMirror),
			grants:  make(map[grantKey]*grantor),
		}
		for t, rt := range byID {
			if rt.worker == w {
				node.tasks[t] = rt
			}
		}
		na.nodes[w] = node
		if a.dist == nil {
			na.addrs[w] = ln.Addr().String()
		}
	}
	// Census: receiver-side grantors (one per sending worker per task) and
	// sender-side mirrors (one per remote task fed from this worker). Mirrors
	// start empty — every credit a frame spends was granted by the receiver,
	// so the in-flight bound is the receiver's gate capacity.
	for _, cc := range cross {
		if node := na.nodes[cc.to]; node != nil {
			if k := (grantKey{task: cc.task, from: cc.from}); node.grants[k] == nil {
				rt := byID[cc.task]
				if rt == nil || rt.gate == nil {
					na.shutdown()
					return nil, fmt.Errorf("engine: network transport: no gate for local task %v", cc.task)
				}
				node.grants[k] = &grantor{
					task: cc.task,
					from: cc.from,
					gate: rt.gate,
					sig:  make(chan struct{}, 1),
					q:    grantQueue{capacity: rt.gate.capacity},
				}
			}
		}
		if node := na.nodes[cc.from]; node != nil {
			if node.mirrors[cc.task] == nil {
				node.mirrors[cc.task] = &creditMirror{q: creditQueue[*netTarget]{depth: wireParkDepth}}
			}
		}
	}
	// Per-peer traffic cells and outbound connections, from the same census:
	// each local node gets one of each per peer it exchanges frames with —
	// data one way means credits the other, so every pair is bidirectional.
	na.peerStats = make(map[peerKey]*peerWireStats)
	for _, cc := range cross {
		for _, pk := range []peerKey{{local: cc.from, peer: cc.to}, {local: cc.to, peer: cc.from}} {
			if node := na.nodes[pk.local]; pk.local != pk.peer && node != nil && na.peerStats[pk] == nil {
				na.peerStats[pk] = &peerWireStats{}
				node.conns[pk.peer] = &peerConn{
					node:   node,
					peer:   pk.peer,
					stats:  na.peerStats[pk],
					sig:    make(chan struct{}, 1),
					failed: make(chan struct{}),
					done:   make(chan struct{}),
				}
			}
		}
	}
	tel := a.j.opts.Telemetry
	na.creditWaitH = tel.Histogram(creditWaitSeries).Scope()
	na.grantWaitH = tel.Histogram("net.grant_wait_seconds")
	for _, node := range na.nodes {
		na.wg.Add(1)
		go node.acceptLoop()
		for _, pc := range node.conns {
			na.wg.Add(1)
			go pc.run()
		}
		for _, g := range node.grants {
			na.wg.Add(1)
			go g.run(node)
		}
	}
	na.registerGauges()
	return na, nil
}

// registerGauges adds per-peer wire gauges to the attempt's set: records
// granted to a sending worker but not yet arrived ("in flight on the wire
// toward this node").
func (na *netAttempt) registerGauges() {
	if na.a.j.opts.Telemetry == nil {
		return
	}
	workerID := func(w int) string { return na.a.j.spec.Workers[w].ID }
	for _, node := range na.nodes {
		byFrom := make(map[int][]*grantor)
		for k, g := range node.grants {
			byFrom[k.from] = append(byFrom[k.from], g)
		}
		for from, gs := range byFrom {
			na.a.gauge("net_peer_inflight_records",
				map[string]string{"from": workerID(from), "to": workerID(node.worker)},
				func() float64 {
					var sum int64
					for _, g := range gs {
						g.mu.Lock()
						sum += g.q.outstanding
						g.mu.Unlock()
					}
					return float64(sum)
				})
		}
	}
	// Per-peer traffic by direction and frame type. Gauge funcs read the
	// same atomic cells the hot paths bump, so the exposition is live.
	for pk, ps := range na.peerStats {
		labels := map[string]string{"local": workerID(pk.local), "peer": workerID(pk.peer)}
		for _, typ := range dataFrameTypes {
			for _, dir := range []string{"sent", "received"} {
				l := map[string]string{"local": labels["local"], "peer": labels["peer"], "dir": dir, "type": frameTypeName(typ)}
				na.a.gauge("net_peer_frames", l, func() float64 {
					if dir == "sent" {
						return float64(ps.sentFrames[typ].Load())
					}
					return float64(ps.recvFrames[typ].Load())
				})
				na.a.gauge("net_peer_bytes", l, func() float64 {
					if dir == "sent" {
						return float64(ps.sentBytes[typ].Load())
					}
					return float64(ps.recvBytes[typ].Load())
				})
			}
		}
	}
	for _, node := range na.nodes {
		// Total records/markers parked in this node's delivery pumps —
		// wire-side inbox depth, the receiver half of backpressure.
		na.a.gauge("net_pump_queue_depth",
			map[string]string{"worker": workerID(node.worker)},
			func() float64 {
				node.dmu.Lock()
				pumps := make([]*chanPump, 0, len(node.pumps))
				for _, p := range node.pumps {
					pumps = append(pumps, p)
				}
				node.dmu.Unlock()
				var n int
				for _, p := range pumps {
					p.mu.Lock()
					n += len(p.q)
					p.mu.Unlock()
				}
				return float64(n)
			})
		// Receiver-side credit gates (capacity left for local tasks fed
		// over the wire) and sender-side mirrors (the frames parked for
		// credit toward each remote task).
		for t, rt := range node.tasks {
			if rt.gate == nil {
				continue
			}
			gate := rt.gate
			na.a.gauge("net_credit_gate_avail",
				map[string]string{"task": t.String(), "worker": workerID(node.worker)},
				func() float64 { return float64(gate.avail.Load()) })
		}
		for t, m := range node.mirrors {
			na.a.gauge("net_mirror_parked_frames",
				map[string]string{"task": t.String(), "worker": workerID(node.worker)},
				func() float64 {
					m.mu.Lock()
					defer m.mu.Unlock()
					return float64(len(m.q.parked))
				})
		}
	}
}

// start unblocks the grantors; peer addresses must be complete by now.
func (na *netAttempt) start() {
	na.startOnce.Do(func() { close(na.started) })
}

// setPeers installs peer data addresses (distributed attempts learn them
// from the coordinator after every worker has bound its listener).
func (na *netAttempt) setPeers(addrs map[int]string) {
	na.addrMu.Lock()
	defer na.addrMu.Unlock()
	for w, a := range addrs {
		na.addrs[w] = a
	}
}

func (na *netAttempt) addrFor(w int) (string, error) {
	na.addrMu.RLock()
	defer na.addrMu.RUnlock()
	a, ok := na.addrs[w]
	if !ok {
		return "", fmt.Errorf("engine: no data address for worker %d", w)
	}
	return a, nil
}

// stopped reports whether teardown has begun.
func (na *netAttempt) stopped() bool {
	select {
	case <-na.stop:
		return true
	default:
		return false
	}
}

// drain ends a clean attempt's wire: once the tasks have finished, what they
// sent last — final DATA frames, EOF markers — may still be queued behind a
// writer, and tearing the sockets down under it would lose them. Every
// writer writes out its queue and exits. A queue that failed instead is a
// send failure nobody was left to notice, and is handled as one. Only a clean
// attempt drains: an aborted one's writer may be blocked on a dead peer
// until shutdown closes the socket.
func (na *netAttempt) drain() {
	close(na.draining)
	for _, node := range na.nodes {
		for _, pc := range node.conns {
			select {
			case <-pc.done:
			case <-na.a.abort:
				return
			}
			if err := pc.sendErr(); err != nil {
				na.failSend(pc.peer, err)
				return
			}
		}
	}
}

// shutdown closes listeners and connections and waits for every wire
// goroutine. Callers must ensure no task goroutine is still sending; a
// writer may be (a grant queued into an attempt that aborted under the
// requester), so a connection that finishes dialing or is accepted after the
// sweep below closes itself — see dial and acceptLoop.
func (na *netAttempt) shutdown() {
	na.stopOnce.Do(func() { close(na.stop) })
	for _, node := range na.nodes {
		if node.ln != nil {
			node.ln.Close()
		}
		for _, pc := range node.conns {
			pc.closeNow()
		}
		node.mu.Lock()
		inbound := node.inbound
		node.mu.Unlock()
		for _, c := range inbound {
			c.Close()
		}
	}
	na.wg.Wait()
}

// noteSendFailure records a dial or write failure toward a peer. During teardown it
// is noise; mid-run it means the peer died — a distributed worker reports
// it to the coordinator (once per peer), which owns the recovery decision.
func (na *netAttempt) noteSendFailure(peer int, err error) {
	if na.stopped() {
		return
	}
	na.pdMu.Lock()
	if na.peerDown == nil {
		na.peerDown = make(map[int]bool)
	}
	first := !na.peerDown[peer]
	na.peerDown[peer] = true
	na.pdMu.Unlock()
	if first && na.a.dist != nil && na.a.dist.OnPeerDown != nil {
		na.a.dist.OnPeerDown(peer, err)
	}
}

// failFatal records the first unrecoverable wire error and aborts the
// attempt; attempt.run returns it once the task goroutines drain.
func (na *netAttempt) failFatal(err error) {
	na.fatalMu.Lock()
	if na.fatal == nil {
		na.fatal = err
	}
	na.fatalMu.Unlock()
	na.a.doAbort()
}

// fatalErr returns the error recorded by failFatal, if any.
func (na *netAttempt) fatalErr() error {
	na.fatalMu.Lock()
	defer na.fatalMu.Unlock()
	return na.fatal
}

// exportCreditWait folds a credit-wait distribution into a result registry:
// the observation count plus the p99 in integer microseconds (the `dist:`
// summary line and its parser deal in integers).
func exportCreditWait(reg *metrics.Registry, snap telemetry.HistogramSnapshot) {
	reg.Counter("net.credit_waits").Inc(snap.Count)
	p99 := 0.0
	if snap.Count > 0 {
		p99 = float64(int64(snap.Quantile(0.99) * 1e6))
	}
	reg.Gauge("net.credit_wait_p99_us").Set(p99)
}

// netNode is one worker's wire endpoint.
type netNode struct {
	na     *netAttempt
	worker int
	ln     net.Listener

	mu       sync.Mutex
	inbound  []net.Conn
	seenFrom map[int]bool // peers that completed an inbound handshake; guarded by mu

	// Immutable after construction; read by reader goroutines.
	conns   map[int]*peerConn // outbound, by peer worker
	tasks   map[dataflow.TaskID]*taskRuntime
	mirrors map[dataflow.TaskID]*creditMirror
	grants  map[grantKey]*grantor

	// Per-channel delivery pumps, created lazily by connection readers.
	dmu   sync.Mutex
	pumps map[chanKey]*chanPump
}

// chanKey names one receiver-side channel: a specific input index and
// channel slot of a local task.
type chanKey struct {
	task dataflow.TaskID
	in   int
	ch   int
}

type grantKey struct {
	task dataflow.TaskID
	from int
}

// peerConn is one outbound connection and the writer goroutine that owns its
// socket. Everyone else — tasks, grantors, connection readers — appends
// sealed frames to out and returns; the writer dials on the first frame,
// swaps the queue out and issues one Write for everything in it. An idle
// writer therefore ships a lone frame at once (nothing waits at low rates),
// and a busy one finds the frames queued during its last Write and ships
// them together. The queue is bounded the way the pump queues are: a DATA
// frame reaches it only once credits cover it, and every credit frame
// answers or announces one of those.
type peerConn struct {
	node  *netNode
	peer  int
	stats *peerWireStats
	// sig is the writer's wakeup token: out became non-empty.
	sig chan struct{}
	// failed closes when the connection fails (err is set first): senders
	// blocked on a frame parked for this peer stop waiting for credits that
	// can no longer be spent. done closes when the writer exits.
	failed, done chan struct{}
	// conn is published separately so teardown can close it (unblocking a
	// stuck Write) without the queue lock.
	conn atomic.Pointer[net.TCPConn]

	mu  sync.Mutex
	out []byte // sealed frames, back to back, oldest first; guarded by mu
	err error  // first dial or write failure; guarded by mu
}

func (pc *peerConn) closeNow() {
	if c := pc.conn.Load(); c != nil {
		c.Close()
	}
}

// enqueue has add append one sealed frame to the write queue, behind
// everything already queued for the peer. It never blocks and never touches
// the socket; the error is the connection's failure, after which nothing
// more is accepted. (Small frames are encoded in place: sealFrame's checksum
// call makes a stack buffer escape, and the queue is on the heap already.)
func (pc *peerConn) enqueue(add func(out []byte) []byte) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return pc.err
	}
	pc.out = add(pc.out)
	select {
	case pc.sig <- struct{}{}:
	default:
	}
	return nil
}

// sendCredit queues a credit request or grant of cnt records for task.
func (pc *peerConn) sendCredit(typ byte, task dataflow.TaskID, cnt int64) error {
	return pc.enqueue(func(out []byte) []byte {
		return sealFrame(appendCredit(beginFrame(out, typ), task, cnt), len(out))
	})
}

func (pc *peerConn) sendErr() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err
}

// run is the writer: the only goroutine that dials, writes and fails the
// connection.
func (pc *peerConn) run() {
	na := pc.node.na
	defer na.wg.Done()
	defer close(pc.done)
	var buf []byte // the queue's other half: written out while out refills
	draining := false
	for {
		pc.mu.Lock()
		buf, pc.out = pc.out, buf[:0]
		pc.mu.Unlock()
		switch {
		case len(buf) > 0:
			if err := pc.write(buf); err != nil {
				pc.fail(err)
				return
			}
		case draining:
			// No task is left to queue anything: empty now is empty for good.
			return
		default:
			select {
			case <-pc.sig:
			case <-na.draining:
				draining = true
			case <-na.stop:
				return
			}
		}
	}
}

// write ships buf — one or more whole frames — in a single Write, dialing
// first if this is the connection's first traffic, and accounts what went
// out frame by frame.
func (pc *peerConn) write(buf []byte) error {
	c := pc.conn.Load()
	if c == nil {
		var err error
		if c, err = pc.dial(); err != nil {
			return err
		}
	}
	if _, err := c.Write(buf); err != nil {
		return err
	}
	na := pc.node.na
	na.writes.Inc(1)
	na.bytesSent.Inc(int64(len(buf)))
	frames := int64(0)
	for len(buf) > 0 {
		sz := frameHeaderLen + int(binary.BigEndian.Uint32(buf)) + frameTrailerLen
		pc.stats.note(true, buf[frameHeaderLen], int64(sz))
		buf = buf[sz:]
		frames++
	}
	na.framesSent.Inc(frames)
	return nil
}

// fail marks the connection dead, once: queued and future frames are
// dropped, senders blocked behind it are released (into failSend), and the
// peer is reported down.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	first := pc.err == nil
	if first {
		pc.err = err
		pc.out = nil
	}
	pc.mu.Unlock()
	if !first {
		return
	}
	close(pc.failed)
	pc.closeNow()
	pc.node.na.noteSendFailure(pc.peer, err)
}

func (pc *peerConn) dial() (*net.TCPConn, error) {
	n := pc.node
	addr, err := n.na.addrFor(pc.peer)
	if err != nil {
		return nil, err
	}
	c, err := net.DialTimeout("tcp", addr, netDialTimeout)
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		c.Close()
		return nil, fmt.Errorf("engine: dial %s: not a TCP connection", addr)
	}
	hello := sealFrame(appendHello(beginFrame(nil, FrameDataHello), n.worker, n.na.a.no), 0)
	if _, err = tc.Write(hello); err != nil {
		tc.Close()
		return nil, err
	}
	pc.conn.Store(tc)
	if n.na.stopped() {
		// Teardown swept this peerConn while it was still dialing: nobody
		// else will close the connection, and an in-process peer's reader
		// would block on it (and shutdown on that reader) forever.
		tc.Close()
		return nil, net.ErrClosed
	}
	n.na.dials.Inc(1)
	pc.stats.note(true, FrameDataHello, int64(len(hello)))
	return tc, nil
}

// acceptLoop serves inbound connections until the listener closes.
func (n *netNode) acceptLoop() {
	defer n.na.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		n.inbound = append(n.inbound, c)
		n.mu.Unlock()
		if n.na.stopped() {
			c.Close() // accepted after teardown copied n.inbound
		}
		n.na.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn dispatches one inbound connection's frames: data, markers and
// credit grants. A handshake from a different attempt is stale — the dialer
// outlived a recovery — and the connection is dropped before any frame of
// it can contaminate this attempt.
func (n *netNode) serveConn(c net.Conn) {
	defer n.na.wg.Done()
	defer c.Close()
	// One buffered reader and one body buffer for the connection's life: a
	// read syscall fetches as many frames as the socket holds, and no frame
	// allocates to be read. Each payload is fully decoded (keys and values
	// copied out) before the next read overwrites it.
	br := bufio.NewReaderSize(c, connReadBuffer)
	f, body, err := readFrameInto(br, nil)
	if err != nil || f.Type != FrameDataHello {
		return
	}
	hello, err := decodeHello(f.Payload)
	if err != nil || hello.attempt != n.na.a.no {
		return
	}
	from := hello.from
	n.mu.Lock()
	if n.seenFrom == nil {
		n.seenFrom = make(map[int]bool)
	}
	if n.seenFrom[from] {
		n.na.reconnects.Inc(1)
	}
	n.seenFrom[from] = true
	n.mu.Unlock()
	ps := n.na.peerStats[peerKey{local: n.worker, peer: from}]
	ps.note(false, FrameDataHello, int64(frameHeaderLen+1+len(f.Payload)+frameTrailerLen))
	for {
		if f, body, err = readFrameInto(br, body); err != nil {
			// Read errors are teardown or peer death; failure detection is
			// the coordinator's job — control-plane liveness plus the
			// senders' PEERDOWN reports when their writes start failing.
			return
		}
		sz := int64(frameHeaderLen + 1 + len(f.Payload) + frameTrailerLen)
		n.na.framesRecv.Inc(1)
		n.na.bytesRecv.Inc(sz)
		ps.note(false, f.Type, sz)
		if !n.handleFrame(from, f) {
			return
		}
	}
}

// handleFrame processes one inbound frame. Returning false severs the
// connection — reserved for undecodable payloads, where the stream's
// integrity itself is in doubt, and for a credit frame the protocol refuses
// (ErrCreditOverCapacity, ErrCreditMismatch: each also fails the attempt,
// since the frame it leaves parked could never ship). A decodable frame
// with an unexpected key (unknown task, no matching grantor/mirror,
// non-positive credit count) is a stray — stale, misrouted, or from a buggy
// peer — and is counted and skipped instead: one bad frame must not sever
// every channel multiplexed on the shared connection.
func (n *netNode) handleFrame(from int, f Frame) bool {
	switch f.Type {
	case FrameCredit, FrameCreditReq:
		cr, err := decodeCredit(f.Payload)
		if err != nil {
			return false
		}
		task, _, _ := n.na.resolve(cr.task)
		mirror, g := n.mirrors[task], n.grants[grantKey{task: task, from: from}]
		if cr.n <= 0 || (f.Type == FrameCredit && mirror == nil) || (f.Type == FrameCreditReq && g == nil) {
			n.na.unexpectedFrames.Inc(1)
			return true
		}
		if f.Type == FrameCredit {
			err = mirror.grant(cr.n)
		} else {
			err = g.request(cr.n)
		}
		if err != nil {
			n.na.failFatal(fmt.Errorf("engine: worker %d, task %v: %w", from, task, err))
			return false
		}
		return true
	case FrameData:
		r := WireReader{b: f.Payload}
		h := r.batchHeader()
		if r.err != nil {
			return false
		}
		task, ok := n.deliverable(h.task, h.in, h.ch)
		if !ok {
			return true
		}
		entries, err := r.batchEntries(h.count)
		if err != nil {
			return false
		}
		if g := n.grants[grantKey{task: task, from: from}]; g != nil {
			g.mu.Lock()
			g.q.arrived(int64(h.count))
			g.mu.Unlock()
		}
		n.dispatch(task, message{in: h.in, ch: h.ch, batch: entries})
		return true
	case FrameBarrier, FrameEOF:
		m, err := decodeMark(f.Payload)
		if err != nil {
			return false
		}
		task, ok := n.deliverable(m.task, m.in, m.ch)
		if !ok {
			return true
		}
		msg := message{in: m.in, ch: m.ch}
		if f.Type == FrameEOF {
			msg.eof = true
		} else {
			msg.barrier = true
			msg.epoch = m.epoch
		}
		n.dispatch(task, msg)
		return true
	default:
		// A foreign frame type (e.g. a control-plane frame that strayed onto
		// a data connection) passed the CRC, so framing is intact; skip it.
		n.na.unexpectedFrames.Inc(1)
		return true
	}
}

// deliverable resolves the (task, input, channel) a data or marker frame
// addresses and reports whether this node can dispatch it. A task that is
// not here, or an input or channel the task does not have, makes the frame
// a stray: counted and skipped. Delivered regardless, it would start a pump
// for a channel that does not exist and the task loop would index its
// per-channel watermark and barrier state out of range — one frame from a
// stale or buggy peer would panic the worker process.
func (n *netNode) deliverable(t wireTask, in, ch int) (dataflow.TaskID, bool) {
	task, inputs, _ := n.na.resolve(t)
	if rt := n.tasks[task]; rt == nil || in >= inputs || ch >= rt.numIn {
		n.na.unexpectedFrames.Inc(1)
		return task, false
	}
	return task, true
}

// dispatch hands one message to the per-channel pump, which delivers it
// into the task's inbox in arrival order. The connection reader must NEVER
// block here: one conn multiplexes many channels plus credit requests, and
// a reader stuck on one task's full inbox would stall credit grants for
// every other task behind it — a head-of-line deadlock the in-memory
// engine cannot have, because there every blocked sender is its own
// goroutine. The pump replays exactly that: a dedicated goroutine per
// receiver channel that blocks on the inbox like an in-memory sender.
func (n *netNode) dispatch(task dataflow.TaskID, msg message) {
	rt := n.tasks[task] // non-nil: handleFrame verifies before dispatching
	key := chanKey{task: task, in: msg.in, ch: msg.ch}
	n.dmu.Lock()
	p := n.pumps[key]
	if p == nil {
		if n.pumps == nil {
			n.pumps = make(map[chanKey]*chanPump)
		}
		p = &chanPump{n: n, rt: rt, sig: make(chan struct{}, 1)}
		n.pumps[key] = p
		n.na.wg.Add(1)
		go p.run()
	}
	n.dmu.Unlock()
	p.push(msg)
}

// chanPump delivers one receiver channel's messages into the task inbox.
// The queue is unbounded in form but bounded in fact: data records queued
// here hold gate credits the grantor acquired before they were sent, so at
// most ChannelCapacity records (plus credit-free barrier/EOF markers) can
// be pending per task across all of its channels.
type chanPump struct {
	n   *netNode
	rt  *taskRuntime
	mu  sync.Mutex
	q   []message
	sig chan struct{}
}

func (p *chanPump) push(msg message) {
	p.mu.Lock()
	p.q = append(p.q, msg)
	p.mu.Unlock()
	select {
	case p.sig <- struct{}{}:
	default:
	}
}

func (p *chanPump) run() {
	defer p.n.na.wg.Done()
	for {
		p.mu.Lock()
		var msg message
		ok := len(p.q) > 0
		if ok {
			msg = p.q[0]
			p.q[0] = message{}
			p.q = p.q[1:]
			if len(p.q) == 0 {
				p.q = nil // let the drained backing array go
			}
		}
		p.mu.Unlock()
		if !ok {
			select {
			case <-p.sig:
				continue
			case <-p.n.na.a.abort:
				return
			case <-p.n.na.stop:
				return
			}
		}
		select {
		case p.rt.inbox <- msg:
		case <-p.n.na.a.abort:
			return
		case <-p.n.na.stop:
			return
		}
	}
}

// grantor acquires credits from a local task's gate on behalf of one
// remote sending worker, on demand: each FrameCreditReq names how many
// records the sender's parked frame needs, the grantor blocks acquiring
// exactly that much, and grants it back over the wire.
type grantor struct {
	task dataflow.TaskID
	from int
	gate *creditGate
	sig  chan struct{} // cap-1 signal: a request arrived

	mu sync.Mutex
	q  grantQueue // guarded by mu
}

// request queues a credit request for the grantor goroutine: its gate acquire
// may block, and the connection reader handing it over must keep draining
// data frames (the task consuming them is what returns credits to the gate).
func (g *grantor) request(n int64) error {
	g.mu.Lock()
	err := g.q.request(n)
	g.mu.Unlock()
	select {
	case g.sig <- struct{}{}:
	default:
	}
	return err
}

func (g *grantor) run(n *netNode) {
	defer n.na.wg.Done()
	na := n.na
	select {
	case <-na.started:
	case <-na.stop:
		return
	}
	for {
		g.mu.Lock()
		want, ok := g.q.next()
		g.mu.Unlock()
		if !ok {
			select {
			case <-g.sig:
				continue
			case <-na.stop:
				return
			}
		}
		t0 := na.a.clk()
		ok, stalled := g.gate.acquire(want, na.stop)
		if !ok {
			return
		}
		if stalled {
			na.grantWaitH.Observe(na.a.clk.Since(t0).Seconds())
		}
		// Granted with the send, under the lock: the reader cannot count this
		// grant's data as arrived before the grant itself.
		g.mu.Lock()
		err := n.conns[g.from].sendCredit(FrameCredit, g.task, want)
		if err == nil {
			g.q.granted(want)
		}
		g.mu.Unlock()
		if err != nil {
			// Connection failed: the grant never left, so its credits go back
			// to the gate. The peer is reported down; recovery is the
			// coordinator's.
			g.gate.release(want)
			return
		}
		na.creditFrames.Inc(1)
	}
}

// creditMirror is the sending worker's half of one remote task's gate: the
// sealed DATA frames of this worker's senders waiting for credit, oldest
// request first. A grant is spent the moment the connection reader delivers
// it — grant moves the frame it pays for to the peer's write queue — so
// credits are never held by a goroutine that could be blocked on something
// else. That is the whole deadlock argument: acquiring on the task goroutine
// instead ("request early, acquire later") lets a task hold one target's
// credits while it waits on another's, which cycles at ChannelCapacity ==
// BatchSize across three workers. Lock order: mirror.mu, then peerConn.mu.
type creditMirror struct {
	mu sync.Mutex
	q  creditQueue[*netTarget] // guarded by mu
}

// grant ships the frame one CREDIT of n records pays for. Called by the
// connection reader, it never blocks: peerConn.enqueue only appends.
func (m *creditMirror) grant(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.q.grant(n)
	if err != nil {
		return err
	}
	// A failed connection drops the frame; its sender is released through
	// pc.failed or its next send's error, not from here.
	t, frame := p.key, p.key.frames[p.slot]
	if t.pc.enqueue(func(out []byte) []byte { return append(out, frame...) }) == nil {
		t.pc.node.na.dataBatches.Inc(1)
	}
	select {
	case t.shipped <- struct{}{}:
	default:
	}
	return nil
}

// ready reports whether t may go on: for a flush, with the frame buffer it
// seals into; for a marker, once none of its frames is parked.
func (m *creditMirror) ready(t *netTarget, marker bool) (slot int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if marker {
		return 0, m.q.mark(t)
	}
	return m.q.vacant(t)
}

// netTarget ships one sender's batches and markers to a task on a peer
// worker. It owns wireParkDepth frame buffers: a flush seals its batch into
// a vacant one and parks it in the mirror behind its own credit request, and
// the task goes back to filling the next batch while the round trip runs.
// The task blocks only when every buffer is parked — or, for a marker, while
// any is: up to two frames parked and one filling per sender-target pair.
type netTarget struct {
	pc     *peerConn
	mirror *creditMirror
	task   dataflow.TaskID

	// frames are the sealed DATA frames of the last batches flushed here.
	// While the mirror holds one parked, it is the connection reader's (read
	// under mirror.mu); the task rewrites only the slot ready hands it.
	// shipped is the reader's wakeup token.
	frames  [wireParkDepth][]byte
	shipped chan struct{}
}

// await blocks until t may go on (see creditMirror.ready) — the network
// transport's credit stall, accounted like the in-memory gate's — and
// returns the slot, and how long the wait took (zero, without a clock read,
// when there was none). ok is false when the attempt aborts or the
// connection fails first.
func (t *netTarget) await(rt *taskRuntime, marker bool) (slot int, waited time.Duration, ok bool) {
	if slot, ok := t.mirror.ready(t, marker); ok {
		return slot, 0, true
	}
	att := rt.att
	att.creditStalls.Inc(1)
	t0 := att.clk()
	for {
		select {
		case <-t.shipped:
		case <-t.pc.failed:
			return 0, 0, t.pc.node.na.failSend(t.pc.peer, t.pc.sendErr())
		case <-att.abort:
			return 0, 0, false
		}
		if slot, ok = t.mirror.ready(t, marker); ok {
			break
		}
	}
	waited = att.clk.Since(t0)
	att.creditStallT.Add(waited)
	rt.bp += waited
	rt.readClock()
	return slot, waited, true
}

// ship seals one batch into a vacant frame buffer and parks it behind a
// credit request for its records. A batch that cannot be encoded, or whose
// frame would pass MaxFramePayload, is a fault of the data, not of the peer:
// the attempt fails with it at once.
func (t *netTarget) ship(rt *taskRuntime, inIdx, ch int, entries []batchEntry) bool {
	slot, waited, ok := t.await(rt, false)
	if !ok {
		return false
	}
	na := t.pc.node.na
	na.creditWaitH.Observe(waited.Seconds())
	frame, err := appendBatch(beginFrame(t.frames[slot][:0], FrameData), t.task, inIdx, ch, entries)
	if payload := len(frame) - frameHeaderLen - 1; err == nil && payload > MaxFramePayload {
		err = fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, payload, MaxFramePayload)
	}
	if err != nil {
		na.encodeErrors.Inc(1)
		na.failFatal(fmt.Errorf("engine: batch for task %v: %w", t.task, err))
		return false
	}
	t.frames[slot] = sealFrame(frame, 0)
	// Request and park under one lock: request order is park order even
	// across co-located senders sharing the mirror, and grants come back in
	// request order.
	t.mirror.mu.Lock()
	err = t.pc.sendCredit(FrameCreditReq, t.task, t.mirror.q.park(t, slot, int64(len(entries))))
	t.mirror.mu.Unlock()
	if err != nil {
		return na.failSend(t.pc.peer, err)
	}
	return true
}

// control queues a barrier or EOF marker once every parked frame of the
// channel has shipped, so the marker follows the channel's data in the
// writer's FIFO.
func (t *netTarget) control(rt *taskRuntime, inIdx, ch int, tmpl message) bool {
	if _, _, ok := t.await(rt, true); !ok {
		return false
	}
	typ := FrameBarrier
	if tmpl.eof {
		typ = FrameEOF
	}
	err := t.pc.enqueue(func(out []byte) []byte {
		return sealFrame(appendMark(beginFrame(out, typ), t.task, inIdx, ch, tmpl.epoch), len(out))
	})
	if err != nil {
		return t.pc.node.na.failSend(t.pc.peer, err)
	}
	return true
}

// dataPlaneEscalation bounds how long a sender blocked on a failed peer
// connection waits for coordinator-driven recovery before failing the attempt
// itself. In a supervised cluster the coordinator acts on the PEERDOWN
// report (or on the peer's own control-plane death) well inside this
// window; the timeout is the backstop for the cases nobody else can see —
// an in-process run with no coordinator, or a coordinator that never
// learns of a data-plane-only failure. Package-level so tests can shorten
// it.
var dataPlaneEscalation = 30 * time.Second

// ErrDataPlaneSend reports a send toward a peer whose connection failed, when
// no recovery arrived within dataPlaneEscalation.
var ErrDataPlaneSend = errors.New("engine: data-plane send failed")

// failSend handles a dead peer connection: report it, then wait for the
// attempt to be torn down. Completing the task as if the send had happened
// would be silent data loss; recovery is the coordinator's decision, not the
// sender's. If no abort arrives within dataPlaneEscalation the attempt is
// failed with a visible error instead of hanging forever. It returns false,
// the senders' "did not send" result.
func (na *netAttempt) failSend(peer int, err error) bool {
	na.noteSendFailure(peer, err)
	select {
	case <-na.a.abort:
	case <-na.stop:
	case <-time.After(dataPlaneEscalation):
		na.failFatal(fmt.Errorf("%w toward worker %d, and no recovery arrived within %v: %w",
			ErrDataPlaneSend, peer, dataPlaneEscalation, err))
	}
	return false
}
