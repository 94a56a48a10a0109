package main

import (
	"context"
	"fmt"
	"time"

	"capsys/internal/cluster"
	"capsys/internal/controller"
	"capsys/internal/costmodel"
	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/placement"
	"capsys/internal/statebackend"
	"capsys/internal/telemetry"
)

// The micro-probes time single layers from outside, by calling their
// exported functions in a loop. They run in the traced run only, on fixed
// inputs of their own, so every workload reports them and a change to a
// layer shows here even on a workload that never reaches it.

// probeFor is how long each probe loops.
const probeFor = 25 * time.Millisecond

// nsPerCall times fn in batches until probeFor has passed.
func nsPerCall(fn func()) float64 {
	fn() // warm
	calls, start := 0, time.Now()
	for batch := 16; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(start); el >= probeFor {
			return float64(el) / float64(calls)
		}
	}
}

// probe runs fn as one span and stores its result under name.
func (l *layerCollector) probe(layer, name string, fn func() float64) {
	_ = l.tr.do(layer, "probe:"+name, func() error {
		l.r.set(name, fn(), 1, nil)
		return nil
	})
}

const frameBatch = 32 // the engine's default batch size

func frameBatches(seed int64) (ints, structs []engine.Record) {
	gen := nexmark.NewGenerator(seed, 1)
	for i := 0; i < frameBatch; i++ {
		ints = append(ints, engine.Record{Value: int64(i), Time: int64(i)})
		p := gen.NextPerson()
		structs = append(structs, engine.Record{Key: fmt.Sprintf("p%d", p.ID), Value: *p, Time: p.Timestamp, Size: 150})
	}
	return ints, structs
}

func (l *layerCollector) frameProbes() {
	ints, structs := frameBatches(l.cfg.seed)
	for _, shape := range []struct {
		name  string
		batch []engine.Record
	}{{"int", ints}, {"struct", structs}} {
		batch := shape.batch
		payload, err := engine.EncodePayload(batch)
		if err != nil {
			l.r.note("frame probe (%s): %v", shape.name, err)
			continue
		}
		l.probe("engine.frame", "engine.frame.encode_ns_per_rec."+shape.name, func() float64 {
			return nsPerCall(func() { _, _ = engine.EncodePayload(batch) }) / frameBatch
		})
		l.probe("engine.frame", "engine.frame.decode_ns_per_rec."+shape.name, func() float64 {
			return nsPerCall(func() {
				var out []engine.Record
				_ = engine.DecodePayload(payload, &out)
			}) / frameBatch
		})
		l.r.set("engine.frame.bytes_per_rec."+shape.name, float64(len(payload))/frameBatch, 1, nil)
		if shape.name != "int" {
			continue
		}
		frame := engine.Frame{Type: engine.FrameData, Payload: payload}
		buf := engine.AppendFrame(nil, frame)
		l.probe("engine.frame", "engine.frame.append_ns_per_frame", func() float64 {
			return nsPerCall(func() { buf = engine.AppendFrame(buf[:0], frame) })
		})
		l.probe("engine.frame", "engine.frame.decode_ns_per_frame", func() float64 {
			return nsPerCall(func() { _, _, _ = engine.DecodeFrame(buf) })
		})
	}
}

func (l *layerCollector) meterProbes() {
	// A meter that never runs dry: the probes time the accounting, not a sleep.
	shard := engine.NewMeter(1e15, 1e15).NewShard()
	var strike float64
	l.probe("engine.resources", "engine.resources.strike_ns", func() float64 {
		strike = nsPerCall(func() { shard.Strike(1e-6) })
		return strike
	})
	l.probe("engine.resources", "engine.resources.draw_ns", func() float64 {
		pair := nsPerCall(func() { shard.Strike(1e-6); shard.Draw() })
		if pair < strike {
			return 0
		}
		return pair - strike
	})
}

func (l *layerCollector) stateProbes(stateBytes float64) {
	const keys = 1 << 14
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%06d", i)
	}
	val := make([]byte, 16)
	store := statebackend.NewStore(nil, statebackend.Options{})
	ns := store.Namespace("probe")
	i := 0
	next := func() string { i++; return names[i&(keys-1)] }
	l.probe("statebackend", "statebackend.put_ns", func() float64 { return nsPerCall(func() { ns.Put(next(), val) }) })
	l.probe("statebackend", "statebackend.get_ns", func() float64 { return nsPerCall(func() { _, _ = ns.Get(next()) }) })
	l.probe("statebackend", "statebackend.route_ns", func() float64 {
		return nsPerCall(func() {
			_ = statebackend.TaskForGroup(statebackend.KeyGroupOf(next(), statebackend.DefaultKeyGroups), 4, statebackend.DefaultKeyGroups)
		})
	})
	lists := store.Namespace("probe-lists")
	l.probe("statebackend", "statebackend.append_ns", func() float64 {
		return nsPerCall(func() {
			k := next()
			if i&(8*keys-1) == 0 { // keep the lists short: drop them every eighth lap
				for _, n := range names {
					lists.ClearList(n)
				}
			}
			lists.Append(k, val)
		})
	})

	// Snapshot, restore and repartition on images the size of the
	// workload's own end-of-run state (1 MB where it keeps none), spread
	// over four tasks' namespaces as a parallelism-4 operator would.
	target := stateBytes
	if target < 1<<20 {
		target = 1 << 20
	}
	if target > 16<<20 {
		target = 16 << 20
	}
	images := make([][]byte, 4)
	var parts []*statebackend.Namespace
	big := statebackend.NewStore(nil, statebackend.Options{})
	for t := 0; t < 4; t++ {
		parts = append(parts, big.Namespace(fmt.Sprintf("op[%d]", t)))
	}
	for k := 0; float64(big.TotalBytes()) < target; k++ {
		key := fmt.Sprintf("key-%08d", k)
		t := statebackend.TaskForGroup(statebackend.KeyGroupOf(key, statebackend.DefaultKeyGroups), 4, statebackend.DefaultKeyGroups)
		parts[t].Put(key, val)
	}
	mb := float64(big.TotalBytes()) / (1 << 20)
	perMB := func(fn func() error) float64 {
		t0 := time.Now()
		if err := fn(); err != nil {
			l.r.note("state probe: %v", err)
			return 0
		}
		return time.Since(t0).Seconds() * 1e3 / mb
	}
	l.probe("statebackend", "statebackend.snapshot_ms_per_mb", func() float64 {
		return perMB(func() (err error) {
			for t, p := range parts {
				if images[t], err = p.Snapshot(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	l.probe("statebackend", "statebackend.restore_ms_per_mb", func() float64 {
		fresh := statebackend.NewStore(nil, statebackend.Options{})
		return perMB(func() error {
			for t, img := range images {
				if err := fresh.Namespace(fmt.Sprintf("op[%d]", t)).Restore(img); err != nil {
					return err
				}
			}
			return nil
		})
	})
	l.probe("statebackend", "statebackend.repartition_ms_per_mb", func() float64 {
		return perMB(func() error {
			_, _, err := statebackend.Repartition(images, 4, 6, statebackend.DefaultKeyGroups)
			return err
		})
	})
}

func (l *layerCollector) telemetryProbes() {
	tel := telemetry.New()
	h := tel.Histogram("bench.probe")
	c := tel.Registry().Counter("bench.probe.count")
	v := 0.0
	l.probe("telemetry", "telemetry.histogram_observe_ns", func() float64 {
		return nsPerCall(func() { v += 1e-6; h.Observe(v) })
	})
	l.probe("telemetry", "telemetry.counter_add_ns", func() float64 { return nsPerCall(func() { c.Inc(1) }) })
}

// placementProbes time the placement-side layers on Q3-inf over five
// workers × four slots — one worker more than the graph needs, so the warm
// re-placement after a worker's death still fits.
func (l *layerCollector) placementProbes(ctx context.Context) error {
	spec := nexmark.Q3Inf()
	c, err := cluster.Homogeneous(5, 4, 2, 50e6, 500e6)
	if err != nil {
		return err
	}
	var phys *dataflow.PhysicalGraph
	var rates *dataflow.RatePlan
	l.probe("dataflow", "dataflow.expand_us", func() float64 {
		return nsPerCall(func() { phys, _ = dataflow.Expand(spec.Graph) }) / 1e3
	})
	l.probe("dataflow", "dataflow.propagate_rates_us", func() float64 {
		return nsPerCall(func() { rates, _ = dataflow.PropagateRates(spec.Graph, spec.SourceRates) }) / 1e3
	})
	if phys == nil || rates == nil {
		return fmt.Errorf("placement probes: Q3-inf did not expand")
	}
	u := costmodel.FromRates(spec.Graph, rates)
	strat := placement.CAPS{}
	plan, err := strat.Place(ctx, phys, c, u, l.cfg.seed)
	if err != nil {
		return err
	}
	var bounds costmodel.Bounds
	l.probe("costmodel", "costmodel.compute_bounds_us", func() float64 {
		return nsPerCall(func() { bounds = costmodel.ComputeBounds(phys, u, c.NumWorkers(), 4) }) / 1e3
	})
	l.probe("costmodel", "costmodel.plan_cost_ns", func() float64 {
		return nsPerCall(func() { _ = costmodel.PlanCost(phys, plan, u, bounds, c.NumWorkers()) })
	})
	l.probe("caps", "caps.warm_replace_ms", func() float64 {
		var ms []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := controller.Replace(ctx, phys, c, strat, u, []int{4}, l.cfg.seed, plan); err != nil {
				l.r.note("warm replace probe: %v", err)
				return 0
			}
			ms = append(ms, time.Since(t0).Seconds()*1e3)
		}
		return median(ms)
	})
	return nil
}
