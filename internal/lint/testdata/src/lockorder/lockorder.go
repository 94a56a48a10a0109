// Package lockfix is a capslint fixture exercising the lockorder analyzer:
// lock-acquisition edges collected over the CFG and call graph, with cyclic
// orders reported as potential deadlocks.
package lockfix

import "sync"

type registry struct {
	mu    sync.Mutex
	peers map[string]*peer
}

type peer struct {
	mu    sync.Mutex
	score int
}

// bump acquires only the peer lock; callers holding the registry lock give
// the interprocedural edge registry.mu -> peer.mu.
func (p *peer) bump() {
	p.mu.Lock()
	p.score++
	p.mu.Unlock()
}

// Promote takes registry.mu then (via bump) peer.mu — the canonical order.
func (r *registry) Promote(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.peers[name]; ok {
		p.bump()
	}
}

// Rebalance is the seeded deadlock: it takes peer.mu then registry.mu,
// the opposite of Promote's order.
func (r *registry) Rebalance(p *peer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.mu.Lock()
	r.peers["x"] = p
	r.mu.Unlock()
}

// Sequential releases the first lock before taking the second: no edge, no
// finding.
func (r *registry) Sequential(p *peer) {
	r.mu.Lock()
	delete(r.peers, "y")
	r.mu.Unlock()
	p.mu.Lock()
	p.score = 0
	p.mu.Unlock()
}

var stateMu sync.Mutex
var logMu sync.Mutex

// Snapshot orders the package-level locks state -> log.
func Snapshot() {
	stateMu.Lock()
	defer stateMu.Unlock()
	logMu.Lock()
	logMu.Unlock()
}

// Flush takes the opposite order only inside a go-launched literal; the new
// goroutine does not inherit logMu, so there is no cycle and no finding.
func Flush(done chan struct{}) {
	logMu.Lock()
	defer logMu.Unlock()
	go func() {
		stateMu.Lock()
		stateMu.Unlock()
		close(done)
	}()
}

// peerConn, grantor and mirror are the network transport's shape: a grantor
// and a credit mirror each queue a frame on the peer connection while
// holding their own lock (grantor.mu -> peerConn.mu, mirror.mu ->
// peerConn.mu). Fail is peerConn.fail with the seeded reversal: it resets
// the failed peer's grantors and mirrors under peerConn.mu. Only a failure
// racing a grant deadlocks, which no engine or controller test schedules;
// lockorder is what catches it.
type peerConn struct {
	mu       sync.Mutex
	out      []byte
	grantors []*grantor
	mirrors  []*mirror
}

type grantor struct {
	mu   sync.Mutex
	owed int64
	pc   *peerConn
}

type mirror struct {
	mu     sync.Mutex
	parked int
	pc     *peerConn
}

func (pc *peerConn) enqueue(b byte) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.out = append(pc.out, b)
}

func (g *grantor) grant() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pc.enqueue(1)
	g.owed = 0
}

func (m *mirror) ship() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pc.enqueue(2)
	m.parked--
}

func (pc *peerConn) Fail() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.out = nil
	for _, g := range pc.grantors {
		g.mu.Lock()
		g.owed = 0
		g.mu.Unlock()
	}
	for _, m := range pc.mirrors {
		m.mu.Lock()
		m.parked = 0
		m.mu.Unlock()
	}
}
