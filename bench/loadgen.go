package main

import (
	"math"
	"sync"
	"time"

	"capsys/internal/engine"
)

func wallNS() int64 { return time.Now().UnixNano() }

// stamper gives record i of one paced source task its due time
// t0 + i/rate, whatever the time at which the engine actually asks for it.
// The sink measures latency from that stamp, so a generator held back by
// backpressure (or anything else) shows up as latency, not as a lighter load.
type stamper struct {
	now  func() int64 // ns clock; tests inject a fake
	rate float64      // records per second for this task
	t0   int64        // due time of record 0
	set  bool

	late              []int64 // now − due per record; pre-allocated
	firstNow, lastNow int64
	firstDue, lastDue int64
}

func newStamper(now func() int64, perTaskRate float64, expect int64) *stamper {
	return &stamper{now: now, rate: perTaskRate, late: make([]int64, 0, expect)}
}

func (s *stamper) offset(i int64) int64 { return int64(math.Round(float64(i) * 1e9 / s.rate)) }

func (s *stamper) stamp(i int64) int64 {
	now := s.now()
	if !s.set {
		s.set = true
		s.t0 = now - s.offset(i)
		s.firstNow, s.firstDue = now, now
	}
	due := s.t0 + s.offset(i)
	if len(s.late) < cap(s.late) {
		s.late = append(s.late, now-due)
	}
	s.lastNow, s.lastDue = now, due
	return due
}

// overrunPct is how much longer than scheduled the task took to emit its
// records, as a percentage of the schedule.
func (s *stamper) overrunPct() float64 {
	planned := s.lastDue - s.firstDue
	if planned <= 0 {
		return 0
	}
	return 100 * float64((s.lastNow-s.firstNow)-planned) / float64(planned)
}

// sourceSpec wraps a bench-owned generator as an engine source factory. In a
// paced run each task gets a stamper and the record carries its due time;
// otherwise Time is whatever gen set. gen must be a pure function of
// (task, i) so restored sources replay identically.
type sourceSpec struct {
	gen func(task, i int64) engine.Record
	// paced per-task rate (records/s); 0 = saturated, unstamped.
	rate   float64
	expect int64
	// stampValue puts the due time in Value instead of Time, for jobs whose
	// operators read Time as event time (windows).
	stampValue bool
	tr         *tracer
	// stampers collects the per-task stampers of a paced run.
	stampers *stamperSet
}

// stamperSet collects stampers from factories that may run on several
// goroutines (the in-process cluster builds each worker's job on its own).
type stamperSet struct {
	mu   sync.Mutex
	list []*stamper
}

func (ss *stamperSet) add(s *stamper) {
	ss.mu.Lock()
	ss.list = append(ss.list, s)
	ss.mu.Unlock()
}

func (sp sourceSpec) factory(ctx *engine.TaskContext) (any, error) {
	sam := sp.tr.sampler("generator")
	var st *stamper
	if sp.rate > 0 {
		st = newStamper(wallNS, sp.rate, sp.expect)
		sp.stampers.add(st)
	}
	return engine.NewSource(func(task, i int64) (engine.Record, bool) {
		t0 := sam.begin()
		r := sp.gen(task, i)
		if st != nil {
			if sp.stampValue {
				r.Value = st.stamp(i)
			} else {
				r.Time = st.stamp(i)
			}
		}
		sam.end(t0)
		return r, true
	}), nil
}

// mapFactory wraps a bench-owned map function, sampled when traced.
func mapFactory(tr *tracer, fn engine.MapFunc) engine.Factory {
	return func(*engine.TaskContext) (any, error) {
		sam := tr.sampler("map")
		if sam == nil {
			return engine.NewMap(fn), nil
		}
		return engine.NewMap(func(r engine.Record) engine.Record {
			t0 := sam.begin()
			out := fn(r)
			sam.end(t0)
			return out
		}), nil
	}
}
