package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// HistogramOptions fixes a histogram's bucket layout. Buckets are log-scale:
// bucket i covers (Start*Growth^(i-1), Start*Growth^i], bucket 0 covers
// (-inf, Start], and one extra overflow bucket covers everything above the
// last finite bound. Two histograms with equal options have identical bucket
// boundaries and their snapshots are mergeable.
type HistogramOptions struct {
	// Start is the upper bound of the first bucket (must be > 0).
	Start float64
	// Growth is the bucket-to-bucket growth factor (must be > 1).
	Growth float64
	// Buckets is the number of finite buckets (must be >= 1).
	Buckets int
}

// DefaultLatencyOptions is the layout used for latency-in-seconds series:
// 1µs to ~2.3 hours in 34 power-of-two buckets.
func DefaultLatencyOptions() HistogramOptions {
	return HistogramOptions{Start: 1e-6, Growth: 2, Buckets: 34}
}

func (o HistogramOptions) validate() error {
	if o.Start <= 0 || o.Growth <= 1 || o.Buckets < 1 {
		return fmt.Errorf("telemetry: invalid histogram options %+v", o)
	}
	return nil
}

// bounds precomputes the finite bucket upper bounds.
func (o HistogramOptions) bounds() []float64 {
	b := make([]float64, o.Buckets)
	v := o.Start
	for i := range b {
		b[i] = v
		v *= o.Growth
	}
	return b
}

// ErrHistogramLayout marks a snapshot whose buckets do not fit: its counts
// are not one per bound plus the overflow bucket, or its bounds differ from
// the histogram or snapshot it is folded into.
var ErrHistogramLayout = errors.New("telemetry: histogram bucket layout mismatch")

// Histogram is a fixed-bucket log-scale histogram safe for concurrent use.
// Observations are lock-free atomic increments; snapshots are consistent
// enough for monitoring (bucket counts never move backwards) without
// stopping writers.
type Histogram struct {
	opts   HistogramOptions
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
	// up is the parent of a Scope: every observation lands there too.
	up *Histogram
}

// NewHistogram creates a histogram with the given layout.
func NewHistogram(opts HistogramOptions) (*Histogram, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	h := &Histogram{opts: opts, bounds: opts.bounds(), counts: make([]atomic.Int64, opts.Buckets+1)}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h, nil
}

// Scope returns a histogram of its own with h's bucket layout; every
// Observe on it also observes h, as a metrics.Registry scope's cells forward
// to the parent's, so the scope's snapshot holds only what was observed
// through it. The scope of a nil histogram is a private histogram with the
// default latency layout.
func (h *Histogram) Scope() *Histogram {
	opts := DefaultLatencyOptions()
	if h != nil {
		opts = h.opts
	}
	s, err := NewHistogram(opts)
	if err != nil {
		// A live histogram's options validated when it was built.
		panic(err)
	}
	s.up = h
	return s
}

// Options returns the histogram's bucket layout.
func (h *Histogram) Options() HistogramOptions { return h.opts }

// Observe records one value. Nil histograms are a no-op, so call sites can
// skip the enabled-check.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// SearchFloat64s finds the first bound >= v, i.e. the tightest bucket
	// whose upper bound covers v; values above every bound land in overflow.
	// A scope and its parents share one layout, so the index is theirs too.
	idx := sort.SearchFloat64s(h.bounds, v)
	for ; h != nil; h = h.up {
		h.counts[idx].Add(1)
		h.sum.add(v)
		h.min.storeMin(v)
		h.max.storeMax(v)
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Snapshot captures the histogram's current state. The snapshot is a plain
// value: it can be merged with snapshots of identically laid-out histograms,
// subtracted from a later snapshot of the same histogram, and queried for
// quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.load()
	s.Min = h.min.load()
	s.Max = h.max.load()
	if s.Count == 0 {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Absorb folds a snapshot's observations into the live histogram — the
// write-side counterpart of Merge, used by the coordinator to accumulate
// interval snapshots shipped from workers into its own cluster-level
// histograms. A snapshot with another bucket layout, or with counts that do
// not match its own bounds, is refused with ErrHistogramLayout; empty
// snapshots (and nil histograms) are a no-op.
func (h *Histogram) Absorb(s HistogramSnapshot) error {
	if h == nil || s.Count == 0 {
		return nil
	}
	if err := s.fits(h.bounds); err != nil {
		return fmt.Errorf("telemetry: absorbing a snapshot: %w", err)
	}
	for i, c := range s.Counts {
		if c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.sum.add(s.Sum)
	h.min.storeMin(s.Min)
	h.max.storeMax(s.Max)
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram. Bounds is shared
// (never mutated); Counts[i] counts observations in bucket i and the final
// entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// Merge folds other into s. The two snapshots must share a bucket layout,
// and other's counts must match its bounds; otherwise s is left unchanged
// and the error wraps ErrHistogramLayout.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) error {
	if other.Count == 0 {
		return nil
	}
	if err := other.fits(s.Bounds); err != nil {
		return fmt.Errorf("telemetry: merging histograms: %w", err)
	}
	if s.Count == 0 && s.Bounds == nil {
		*s = other.clone()
		return nil
	}
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	return nil
}

// Sub returns the interval snapshot s - prev, where prev is an earlier
// snapshot of the same histogram. Min/Max are re-derived from the interval's
// occupied buckets (per-interval extremes are not tracked exactly).
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if prev.Count == 0 || prev.Bounds == nil {
		return s.clone()
	}
	out := HistogramSnapshot{Bounds: s.Bounds, Counts: make([]int64, len(s.Counts))}
	for i := range s.Counts {
		d := s.Counts[i] - prev.Counts[i]
		if d < 0 {
			d = 0
		}
		out.Counts[i] = d
		out.Count += d
	}
	out.Sum = s.Sum - prev.Sum
	if out.Count == 0 {
		return out
	}
	lo, hi := -1, -1
	for i, c := range out.Counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	out.Min = s.Min
	if lo > 0 {
		out.Min = out.Bounds[lo-1]
	}
	if hi < len(out.Bounds) {
		out.Max = out.Bounds[hi]
	} else {
		out.Max = s.Max
	}
	if out.Min > out.Max {
		out.Min = out.Max
	}
	return out
}

func (s HistogramSnapshot) clone() HistogramSnapshot {
	c := s
	c.Counts = append([]int64(nil), s.Counts...)
	return c
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the p-quantile (p in [0,1]) by linear interpolation
// within the covering bucket, clamped to the observed [Min, Max] range.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < upper {
				upper = s.Bounds[i]
			}
			if lower < s.Min {
				lower = s.Min
			}
			if upper < lower {
				upper = lower
			}
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / float64(c)
			}
			return lower + (upper-lower)*frac
		}
		cum = next
	}
	return s.Max
}

// fits checks that s is laid out as a histogram with the given bounds
// would snapshot it: one count per bound plus the overflow bucket. nil
// bounds accept any well-formed snapshot.
func (s HistogramSnapshot) fits(bounds []float64) error {
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("%w: %d counts for %d bounds", ErrHistogramLayout, len(s.Counts), len(s.Bounds))
	}
	if bounds != nil && !sameBounds(bounds, s.Bounds) {
		return fmt.Errorf("%w: different bucket bounds", ErrHistogramLayout)
	}
	return nil
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// atomicFloat is a float64 with atomic add/min/max via CAS on the bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
