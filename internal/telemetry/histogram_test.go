package telemetry

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestHistogramOptionsValidate(t *testing.T) {
	bad := []HistogramOptions{
		{Start: 0, Growth: 2, Buckets: 4},
		{Start: 1, Growth: 1, Buckets: 4},
		{Start: 1, Growth: 2, Buckets: 0},
	}
	for _, o := range bad {
		if _, err := NewHistogram(o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
	if _, err := NewHistogram(DefaultLatencyOptions()); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	h, err := NewHistogram(HistogramOptions{Start: 1, Growth: 2, Buckets: 4}) // bounds 1,2,4,8
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1.5, 3, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s := h.Snapshot()
	wantCounts := []int64{1, 1, 2, 1, 1} // (..1],(1,2],(2,4],(4,8],overflow
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Errorf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	if got, want := s.Sum, 0.5+1.5+3+3+7+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if got, want := s.Mean(), (0.5+1.5+3+3+7+100)/6; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Quantiles are bucket interpolations clamped to [Min, Max].
	if q := s.Quantile(0); q < s.Min || q > s.Max {
		t.Errorf("p0 = %v outside [%v,%v]", q, s.Min, s.Max)
	}
	if q := s.Quantile(0.5); q < 2 || q > 4 {
		t.Errorf("p50 = %v, want within (2,4]", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("p100 = %v, want 100 (the max)", q)
	}
	if got := s.Quantile(0.99); got > 100 {
		t.Errorf("p99 = %v exceeds max", got)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil Count != 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("nil snapshot not empty")
	}
}

func TestSnapshotMerge(t *testing.T) {
	opts := HistogramOptions{Start: 1, Growth: 2, Buckets: 3}
	a, _ := NewHistogram(opts)
	b, _ := NewHistogram(opts)
	a.Observe(0.5)
	a.Observe(3)
	b.Observe(7)
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 3 || sa.Min != 0.5 || sa.Max != 7 {
		t.Errorf("merged = count %d min %v max %v", sa.Count, sa.Min, sa.Max)
	}
	// Merging into an empty snapshot adopts the other's layout.
	var empty HistogramSnapshot
	if err := empty.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if empty.Count != 1 {
		t.Errorf("empty-merge count = %d", empty.Count)
	}
	// Layout mismatch is an explicit error.
	c, _ := NewHistogram(HistogramOptions{Start: 2, Growth: 2, Buckets: 3})
	c.Observe(1)
	sc := c.Snapshot()
	if err := sa.Merge(sc); err == nil {
		t.Error("bounds mismatch accepted")
	}
}

// TestSnapshotLayoutRefused: a snapshot whose counts do not fit its bounds,
// or whose bounds are not the target's, is refused by Absorb and Merge with
// ErrHistogramLayout and leaves the target untouched — such snapshots arrive
// from other processes, and indexing by the wrong length used to panic.
func TestSnapshotLayoutRefused(t *testing.T) {
	opts := HistogramOptions{Start: 1, Growth: 2, Buckets: 3}
	good, _ := NewHistogram(opts)
	good.Observe(3)
	other, _ := NewHistogram(HistogramOptions{Start: 2, Growth: 2, Buckets: 3})
	other.Observe(1)
	withCounts := func(s HistogramSnapshot, counts ...int64) HistogramSnapshot {
		s.Counts = counts
		return s
	}
	for _, c := range []struct {
		name string
		snap HistogramSnapshot
	}{
		{"counts past the overflow bucket", withCounts(good.Snapshot(), 0, 0, 1, 0, 5)},
		{"counts short of the bounds", withCounts(good.Snapshot(), 0, 1)},
		{"no counts", withCounts(good.Snapshot())},
		{"other bounds", other.Snapshot()},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _ := NewHistogram(opts)
			h.Observe(0.5)
			if err := h.Absorb(c.snap); !errors.Is(err, ErrHistogramLayout) {
				t.Errorf("Absorb = %v, want ErrHistogramLayout", err)
			}
			if n := h.Count(); n != 1 {
				t.Errorf("Absorb changed the histogram: count %d, want 1", n)
			}
			into := h.Snapshot()
			if err := into.Merge(c.snap); !errors.Is(err, ErrHistogramLayout) {
				t.Errorf("Merge = %v, want ErrHistogramLayout", err)
			}
			if into.Count != 1 {
				t.Errorf("Merge changed the snapshot: count %d, want 1", into.Count)
			}
			if c.name == "other bounds" {
				return // well-formed on its own: an empty target adopts it
			}
			var empty HistogramSnapshot
			if err := empty.Merge(c.snap); !errors.Is(err, ErrHistogramLayout) {
				t.Errorf("Merge into an empty snapshot = %v, want ErrHistogramLayout", err)
			}
			if empty.Count != 0 || empty.Counts != nil {
				t.Errorf("empty snapshot adopted a malformed one: %+v", empty)
			}
		})
	}
}

// TestHistogramScope: a scope observes into its own buckets and its
// parent's, so two scopes of one hub histogram each hold their own share
// while the hub holds both; the scope of a nil histogram is private.
func TestHistogramScope(t *testing.T) {
	hub, _ := NewHistogram(HistogramOptions{Start: 1, Growth: 2, Buckets: 3})
	hub.Observe(0.5) // an earlier owner's observation
	a, b := hub.Scope(), hub.Scope()
	a.Observe(3)
	a.Observe(3)
	b.Observe(7)
	if sa := a.Snapshot(); sa.Count != 2 || sa.Min != 3 || sa.Max != 3 || !sameBounds(sa.Bounds, hub.Snapshot().Bounds) {
		t.Errorf("scope snapshot = %+v, want its own two observations in the hub's layout", sa)
	}
	if n := b.Count(); n != 1 {
		t.Errorf("second scope count = %d, want its own 1", n)
	}
	if sh := hub.Snapshot(); sh.Count != 4 || sh.Max != 7 {
		t.Errorf("hub snapshot = %+v, want its own and both scopes' observations", sh)
	}
	private := (*Histogram)(nil).Scope()
	private.Observe(0.001)
	if private.Count() != 1 || private.Options() != DefaultLatencyOptions() {
		t.Error("scope of a nil histogram is not a private default-layout histogram")
	}
}

func TestSnapshotSub(t *testing.T) {
	h, _ := NewHistogram(HistogramOptions{Start: 1, Growth: 2, Buckets: 3})
	h.Observe(0.5)
	prev := h.Snapshot()
	h.Observe(3)
	h.Observe(3)
	cur := h.Snapshot()
	d := cur.Sub(prev)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if math.Abs(d.Sum-6) > 1e-9 {
		t.Errorf("delta sum = %v, want 6", d.Sum)
	}
	// The interval's min/max are bucket-bound approximations around (2,4].
	if d.Min != 2 || d.Max != 4 {
		t.Errorf("delta min/max = %v/%v, want 2/4", d.Min, d.Max)
	}
	// Subtracting from an unchanged histogram yields an empty delta.
	if e := cur.Sub(cur); e.Count != 0 {
		t.Errorf("self-delta count = %d", e.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h, _ := NewHistogram(DefaultLatencyOptions())
	const goroutines, perG = 8, 5000
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g+1) * 1e-5 * float64(i%17+1))
			}
		}(g)
	}
	// Concurrent reader: counts must never move backwards.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := h.Count()
			if n < last {
				t.Error("count moved backwards")
				return
			}
			last = n
			h.Snapshot().Quantile(0.99)
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d", got, goroutines*perG)
	}
	if s := h.Snapshot(); s.Count != goroutines*perG {
		t.Fatalf("snapshot count = %d, want %d", s.Count, goroutines*perG)
	}
}
