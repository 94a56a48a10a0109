package engine

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestMeterShardConcurrentExactness: many goroutines striking their own
// shards — with snapshot readers polling Consumed throughout — must merge to
// the exact total. The shard contract is single-writer per shard, not
// single-reader per meter.
func TestMeterShardConcurrentExactness(t *testing.T) {
	m := NewMeter(1e12, 1e12) // effectively unmetered: pacing is not under test
	const (
		writers = 8
		strikes = 10000
	)
	shards := make([]*MeterShard, writers)
	for i := range shards {
		shards[i] = m.NewShard()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		last := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Consumed must be monotone under concurrent strikes: a shard
			// publishes complete totals, never partial ones.
			if got := m.Consumed(); got < last {
				t.Errorf("Consumed went backward: %v -> %v", last, got)
				return
			} else {
				last = got
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(sh *MeterShard) {
			defer wg.Done()
			for j := 0; j < strikes; j++ {
				sh.Strike(0.5)
				if j%64 == 0 {
					sh.Draw()
				}
			}
			sh.Draw()
		}(shards[i])
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	want := float64(writers) * float64(strikes) * 0.5
	if got := m.Consumed(); math.Abs(got-want) > 1e-6 {
		t.Errorf("Consumed = %v, want %v", got, want)
	}
}

// TestMeterShardDrawPaces: coalesced draws still hit the token bucket — a
// shard that strikes more than the bucket holds must sleep the deficit off
// on Draw. Zero and negative strikes are no-ops, and nil meters and shards
// are safe.
func TestMeterShardDrawPaces(t *testing.T) {
	m := NewMeter(1000, 10) // 1000 tokens/s, 10 burst
	sh := m.NewShard()
	start := time.Now()
	sh.Strike(60) // 10 burst + 50 deficit -> >= ~50ms of pacing
	sh.Draw()
	if el := time.Since(start); el < 30*time.Millisecond {
		t.Errorf("Draw returned in %v; a 50-token deficit at 1000/s must pace the caller", el)
	}
	if m.Blocked() == 0 {
		t.Error("meter recorded no blocked time")
	}
	if m.Rate() != 1000 {
		t.Errorf("Rate = %v", m.Rate())
	}
	sh.Strike(0)
	sh.Strike(-5)
	sh.Draw()
	if got := m.Consumed(); got != 60 {
		t.Errorf("Consumed = %v after zero and negative strikes, want 60", got)
	}
	var nilM *Meter
	nilSh := nilM.NewShard()
	nilSh.Strike(10)
	nilSh.Draw()
	if nilSh != nil || nilM.Consumed() != 0 {
		t.Error("nil meter handed out a shard or consumed tokens")
	}
}

// TestMeterShardAllocFree: the strike/draw hot path must not allocate — the
// whole point of sharding is a zero-alloc, contention-free per-record cost.
func TestMeterShardAllocFree(t *testing.T) {
	m := NewMeter(1e12, 1e12)
	sh := m.NewShard()
	allocs := testing.AllocsPerRun(1000, func() {
		sh.Strike(1)
		sh.Draw()
	})
	if allocs != 0 {
		t.Errorf("Strike+Draw allocates %v times per op, want 0", allocs)
	}
}

// TestMeterUtilizationSeesShards: utilization must reflect shard-accounted
// consumption, since the live saturation gauges read it.
func TestMeterUtilizationSeesShards(t *testing.T) {
	m := NewMeter(1e6, 1e6)
	sh := m.NewShard()
	sh.Strike(1000)
	if u := m.Utilization(); u <= 0 {
		t.Errorf("Utilization = %v after striking 1000 tokens, want > 0", u)
	}
}

// BenchmarkMeterShardStrike measures the meter hot path: N goroutines
// striking private shards of one meter with coalesced draws.
func BenchmarkMeterShardStrike(b *testing.B) {
	m := NewMeter(1e12, 1e12)
	b.RunParallel(func(pb *testing.PB) {
		sh := m.NewShard()
		i := 0
		for pb.Next() {
			sh.Strike(1)
			if i++; i%64 == 0 {
				sh.Draw()
			}
		}
		sh.Draw()
	})
}
