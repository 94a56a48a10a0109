// Package atomfix is a capslint fixture exercising the atomics analyzer:
// sync/atomic's package functions are flagged, called or taken as values;
// typed atomics are not.
package atomfix

import "sync/atomic"

// shard mirrors the engine's MeterShard contract: tokens is published with
// atomic stores and polled with atomic loads, through the function API;
// hits uses a typed atomic.
type shard struct {
	tokens int64
	hits   atomic.Int64
}

func (s *shard) publish(n int64) { atomic.StoreInt64(&s.tokens, n) }

func (s *shard) poll() int64 { return atomic.LoadInt64(&s.tokens) }

// adder takes the function as a value: still the function API.
var adder = atomic.AddInt64

// hit and total use the typed atomic and are not flagged: a plain access of
// hits does not compile, and go vet flags a copy of the shard.
func (s *shard) hit() { s.hits.Add(1) }

func total(shards []*shard) int64 {
	var sum int64
	for _, sh := range shards {
		sum += sh.hits.Load()
	}
	return sum
}
