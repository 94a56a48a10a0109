// Package engine is a miniature stateful stream processing engine: the
// executable stand-in for Apache Flink in this reproduction.
//
// The engine implements the slot-oriented resource model the CAPSys paper
// targets (§2.1): a job's physical graph is deployed onto workers according
// to a placement plan; each task runs as its own goroutine (one slot = one
// processing thread) connected to its peers by bounded channels, so
// backpressure is real — a slow consumer blocks its producers all the way
// back to the sources.
//
// Each worker owns three shared token-bucket meters — CPU, disk I/O and
// network — and every record processed, state byte accessed, and byte sent
// to a remote worker draws from the owning worker's meters. Co-located
// resource-intensive tasks therefore genuinely contend, reproducing the
// contention effects the paper measures (§3.3) inside a single process.
package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// tokenScale converts float tokens to the integer nanotokens the lock-free
// bucket balance is kept in. Costs below one nanotoken round to zero.
const tokenScale = 1e9

// maxNanoTokens clamps scaled token quantities so balance arithmetic (at
// most one burst plus one refill plus one draw) can never overflow int64.
const maxNanoTokens = int64(1e18)

func nanoTokens(n float64) int64 {
	v := n * tokenScale
	if v >= float64(maxNanoTokens) {
		return maxNanoTokens
	}
	return int64(v)
}

// Meter is a token-bucket rate limiter representing one shared worker
// resource. Drawing deducts immediately and sleeps off any deficit, so
// concurrent consumers share the capacity proportionally to their demand.
//
// The meter separates pacing from accounting so the record hot path stays
// contention-free:
//
//   - Pacing: the bucket balance is a lock-free atomic nanotoken counter.
//     While the balance stays positive a draw is a single atomic add — no
//     mutex, no clock read. Only a draw that lands the balance in deficit
//     takes the mutex to refill from the wall clock and sleep the debt off.
//   - Accounting: each task owns a MeterShard — a padded, single-writer
//     counter published with one atomic store per strike — and snapshot
//     readers (Consumed, Utilization, the live saturation gauges) merge the
//     shards. Shards also coalesce their struck tokens locally so a chain or
//     batch pays one bucket draw per pass instead of one per record.
type Meter struct {
	rate  float64 // tokens per second; immutable after NewMeter
	burst float64 // immutable after NewMeter

	// balance is the bucket level in nanotokens; draws go negative (debt).
	balance atomic.Int64
	// shards is the copy-on-write registry of per-task accounting shards.
	shards atomic.Pointer[[]*MeterShard]

	mu      sync.Mutex
	last    time.Time     // guarded by mu; last refill instant
	blocked time.Duration // guarded by mu; cumulative time spent sleeping
	created time.Time     // immutable after NewMeter
}

// NewMeter creates a meter refilling at rate tokens/second with the given
// burst allowance (<= 0 means 5% of a second's worth of tokens).
func NewMeter(rate, burst float64) *Meter {
	if burst <= 0 {
		burst = rate * 0.05
	}
	now := time.Now()
	m := &Meter{rate: rate, burst: burst, last: now, created: now}
	m.balance.Store(nanoTokens(burst))
	return m
}

// draw deducts n tokens from the bucket, pacing the caller when the bucket
// is in deficit. It performs no accounting.
func (m *Meter) draw(n float64) {
	if m == nil || n <= 0 {
		return
	}
	need := nanoTokens(n)
	if need == 0 {
		return
	}
	if m.balance.Add(-need) >= 0 {
		return
	}
	m.settleDebt()
}

// settleDebt refills the bucket from the wall clock and, if a deficit
// remains, sleeps it off — the contention effect co-located tasks feel when
// their aggregate demand exceeds the resource.
func (m *Meter) settleDebt() {
	m.mu.Lock()
	now := time.Now()
	elapsed := now.Sub(m.last).Seconds()
	m.last = now
	refill := nanoTokens(elapsed * m.rate)
	if cur := m.balance.Load(); cur+refill > nanoTokens(m.burst) {
		refill = nanoTokens(m.burst) - cur
	}
	if refill > 0 {
		m.balance.Add(refill)
	}
	var wait time.Duration
	if deficit := -m.balance.Load(); deficit > 0 && m.rate > 0 {
		wait = time.Duration(float64(deficit) / tokenScale / m.rate * float64(time.Second))
		m.blocked += wait
	}
	m.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// Blocked reports the cumulative time consumers spent waiting on this meter.
func (m *Meter) Blocked() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blocked
}

// Rate returns the meter's refill rate.
func (m *Meter) Rate() float64 { return m.rate }

// Consumed returns the cumulative tokens taken from this meter: the sum of
// every shard's published total.
func (m *Meter) Consumed() float64 {
	if m == nil {
		return 0
	}
	total := 0.0
	if list := m.shards.Load(); list != nil {
		for _, sh := range *list {
			total += math.Float64frombits(sh.bits.Load())
		}
	}
	return total
}

// Utilization reports the token-bucket saturation: the fraction of the
// meter's cumulative capacity (rate x lifetime) that consumers have actually
// drawn. A value near 1 means the resource is the bottleneck — consumers are
// draining tokens as fast as they refill (and sleeping off the deficit).
func (m *Meter) Utilization() float64 {
	el := time.Since(m.created).Seconds()
	if el <= 0 || m.rate <= 0 {
		return 0
	}
	u := m.Consumed() / (m.rate * el)
	if u > 1 {
		u = 1
	}
	return u
}

// MeterShard is one task's private accounting lane on a shared meter. The
// owning goroutine is the only writer: Strike accumulates locally and
// publishes the running total with a single atomic store, so concurrent
// snapshot readers never contend with the hot path and no update can be
// lost. Struck tokens also pool locally until Draw pays them into the
// token bucket in one coalesced deduction — the "one draw per batch or
// fused-chain pass" discipline. The trailing pad keeps two shards from
// sharing a cache line, so one task's stores never invalidate another's.
type MeterShard struct {
	m *Meter
	// bits publishes the shard's cumulative struck tokens (float64 bits).
	bits atomic.Uint64
	// total/pending are owner-goroutine-only.
	total   float64
	pending float64
	_       [96]byte // pad past a cache line
}

// NewShard registers a new accounting shard on the meter. Shard creation is
// a setup-time operation (one per task per attempt); the copy-on-write swap
// keeps concurrent snapshot readers lock-free.
func (m *Meter) NewShard() *MeterShard {
	if m == nil {
		return nil
	}
	sh := &MeterShard{m: m}
	m.mu.Lock()
	var list []*MeterShard
	if old := m.shards.Load(); old != nil {
		list = append(list, *old...)
	}
	list = append(list, sh)
	m.shards.Store(&list)
	m.mu.Unlock()
	return sh
}

// Strike accounts n tokens against the shard without touching the bucket.
// Owner goroutine only.
func (s *MeterShard) Strike(n float64) {
	if s == nil || n <= 0 {
		return
	}
	s.total += n
	s.bits.Store(math.Float64bits(s.total))
	s.pending += n
}

// Draw pays every token struck since the last Draw into the meter's bucket
// as one coalesced deduction, sleeping off any deficit. Owner goroutine
// only.
func (s *MeterShard) Draw() {
	if s == nil || s.pending <= 0 {
		return
	}
	n := s.pending
	s.pending = 0
	s.m.draw(n)
}

// WorkerResources is one worker's shared resource domain.
type WorkerResources struct {
	// ID is the worker's identifier.
	ID string
	// CPU is denominated in core-seconds per second.
	CPU *Meter
	// IO is denominated in state-access bytes per second.
	IO *Meter
	// Net is denominated in cross-worker bytes per second.
	Net *Meter
}

// NewWorkerResources creates the meters for one worker.
func NewWorkerResources(id string, cores, ioBps, netBps float64) *WorkerResources {
	return &WorkerResources{
		ID:  id,
		CPU: NewMeter(cores, cores*0.05),
		IO:  NewMeter(ioBps, ioBps*0.05),
		Net: NewMeter(netBps, netBps*0.05),
	}
}
