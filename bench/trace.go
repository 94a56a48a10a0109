package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the bench made into a layer. Spans of one workload
// share its name; parent is the id of the span that was open on the calling
// goroutine when this one started (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// maxCallbackSpans bounds how many sampled operator-callback spans one
// tracer keeps; their time is still summed in full.
const maxCallbackSpans = 4096

// tracer keeps spans and counts in memory until the workload ends. A nil
// tracer records nothing, which is how untraced runs stay free of it.
type tracer struct {
	workload string
	epoch    time.Time

	mu        sync.Mutex
	spans     []span
	stack     []int // open span ids on the harness goroutine
	callbacks int
	counts    map[string]int64

	// userNS sums the sampled time spent inside bench-owned operator
	// callbacks; multiplied by sampleEvery it estimates their total.
	userNS atomic.Int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), counts: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// do runs fn inside a span on the harness goroutine.
func (t *tracer) do(layer, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Layer: layer, Name: name, StartNS: t.now()})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	err := fn()
	t.mu.Lock()
	t.spans[id-1].EndNS = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	t.counts[layer+"/"+name]++
	t.mu.Unlock()
	return err
}

// current is the innermost open span on the harness goroutine.
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// callback records one sampled operator-callback span under parent.
func (t *tracer) callback(parent int, name string, start, end int64) {
	t.mu.Lock()
	t.counts["bench/"+name]++
	if t.callbacks < maxCallbackSpans {
		t.callbacks++
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Layer: "bench", Name: name, StartNS: start, EndNS: end})
	}
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < upto {
				lo = upto
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return out
}

// layerSelfMS sums span self time per layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}

type traceFile struct {
	Workload    string             `json:"workload"`
	Spans       []span             `json:"spans"`
	Counts      map[string]int64   `json:"counts"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(traceFile{Workload: t.workload, Spans: t.spans, Counts: t.counts, LayerSelfMS: layerSelfMS(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// callSampler times one in every 64 calls of a bench-owned operator
// callback. Each operator instance owns one (single goroutine, no locking on
// the unsampled path); a nil sampler is the untraced case.
type callSampler struct {
	tr     *tracer
	parent int
	name   string
	n      uint32
}

// sampler returns a callback sampler parented to the span now open on the
// harness goroutine (the Run span, when called from an operator factory).
func (t *tracer) sampler(name string) *callSampler {
	if t == nil {
		return nil
	}
	return &callSampler{tr: t, parent: t.current(), name: name}
}

const sampleEvery = 64

func (c *callSampler) begin() int64 {
	if c == nil {
		return 0
	}
	c.n++
	if c.n%sampleEvery != 0 {
		return 0
	}
	return c.tr.now()
}

func (c *callSampler) end(t0 int64) {
	if t0 == 0 {
		return
	}
	t1 := c.tr.now()
	c.tr.userNS.Add(t1 - t0)
	c.tr.callback(c.parent, c.name, t0, t1)
}
