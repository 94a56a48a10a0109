package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"capsys/internal/engine"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return fnvBytes(h, b[:])
}

// hashValue folds a record value into h. Integer kinds hash by numeric value,
// so a value that changes its Go type on the wire (int vs int64) still
// matches the reference.
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case int64:
		return fnvUint64(h, uint64(x))
	case int:
		return fnvUint64(h, uint64(x))
	case float64:
		return fnvUint64(h, math.Float64bits(x))
	case string:
		return fnvString(h, x)
	case nil:
		return h
	default:
		return fnvString(h, fmt.Sprint(x))
	}
}

// recordHash is the FNV-1a hash of one sink record over key and value, and
// over time when withTime is set (paced runs carry a wall-clock stamp in
// Time, which the reference cannot reproduce).
func recordHash(r engine.Record, withTime bool) uint64 {
	h := hashValue(fnvString(fnvOffset, r.Key), r.Value)
	if withTime {
		h = fnvUint64(h, uint64(r.Time))
	}
	return h
}

// digest is the order-independent fingerprint of a sink's output: the record
// count and the wrapping sum of per-record hashes.
type digest struct {
	Count int64
	Sum   uint64
}

func (d *digest) add(o digest) {
	d.Count += o.Count
	d.Sum += o.Sum
}

// checkSink is the bench-owned sink operator. It fingerprints what it
// absorbs and, on paced runs, records now − stamp per record. It snapshots
// its fingerprint with the job's checkpoints, so records replayed after a
// restore are counted exactly once — which is what the check is for.
type checkSink struct {
	d       digest
	noTime  *digest // reference runs also fingerprint without Time, for paced runs to match
	stamped bool
	lat     []int64 // ns; pre-allocated, appended without reallocating
	sampler *callSampler
}

func (s *checkSink) Open(*engine.TaskContext) error { return nil }

func (s *checkSink) Process(rec engine.Record, _ int, _ engine.Emit) error {
	t0 := s.sampler.begin()
	s.d.Count++
	s.d.Sum += recordHash(rec, !s.stamped)
	if s.noTime != nil {
		s.noTime.Count++
		s.noTime.Sum += recordHash(rec, false)
	}
	if s.stamped && len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, time.Now().UnixNano()-rec.Time)
	}
	s.sampler.end(t0)
	return nil
}

func (s *checkSink) Close(engine.Emit) error { return nil }

func (s *checkSink) SnapshotState() ([]byte, error) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(s.d.Count))
	binary.LittleEndian.PutUint64(b[8:], s.d.Sum)
	return b[:], nil
}

func (s *checkSink) RestoreState(b []byte) error {
	if len(b) == 0 {
		s.d = digest{}
		return nil
	}
	if len(b) != 16 {
		return fmt.Errorf("bench: sink image is %d bytes, want 16", len(b))
	}
	s.d.Count = int64(binary.LittleEndian.Uint64(b[:8]))
	s.d.Sum = binary.LittleEndian.Uint64(b[8:])
	return nil
}

// sinkSet hands out one checkSink per sink task and sums them after the run.
// A restarted attempt builds its tasks afresh, so the newest instance per
// task index is the one whose fingerprint counts.
type sinkSet struct {
	mu      sync.Mutex
	latest  map[int]*checkSink
	stamped bool
	latCap  int
	both    bool // reference run: fingerprint with and without Time
	tr      *tracer
}

func newSinkSet() *sinkSet { return &sinkSet{latest: map[int]*checkSink{}} }

func (ss *sinkSet) factory(ctx *engine.TaskContext) (any, error) {
	s := &checkSink{stamped: ss.stamped, sampler: ss.tr.sampler("sink")}
	if ss.stamped {
		s.lat = make([]int64, 0, ss.latCap)
	}
	if ss.both {
		s.noTime = new(digest)
	}
	ss.mu.Lock()
	ss.latest[ctx.Index] = s
	ss.mu.Unlock()
	return s, nil
}

func (ss *sinkSet) digest() digest {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var d digest
	for _, s := range ss.latest {
		d.add(s.d)
	}
	return d
}

// digestNoTime is the reference fingerprint paced runs are checked against.
func (ss *sinkSet) digestNoTime() digest {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var d digest
	for _, s := range ss.latest {
		d.add(*s.noTime)
	}
	return d
}

// latencies returns the latency samples of a paced run (which never restarts,
// so the latest instances are the only ones).
func (ss *sinkSet) latencies() []int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var out []int64
	for _, s := range ss.latest {
		out = append(out, s.lat...)
	}
	return out
}
