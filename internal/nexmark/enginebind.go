package nexmark

import (
	"encoding/json"
	"fmt"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
)

// EngineBinding carries everything needed to execute a benchmark query on
// the live engine: operator factories, which operators need state, and the
// per-record CPU costs the engine charges against the workers' shared
// meters (the profiled costs, mirroring what heavyweight operator logic
// would consume on a real cluster).
type EngineBinding struct {
	Factories    map[dataflow.OperatorID]engine.Factory
	Stateful     map[dataflow.OperatorID]bool
	PerRecordCPU map[dataflow.OperatorID]float64
}

// BindEngine builds the live-engine implementation of one of the six
// benchmark queries. Seed drives the deterministic event generators (each
// source task derives its own stream from seed and its task index).
func BindEngine(spec QuerySpec, seed int64) (*EngineBinding, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("nexmark: query %q has no graph", spec.Name)
	}
	b := &EngineBinding{
		Factories:    make(map[dataflow.OperatorID]engine.Factory),
		Stateful:     make(map[dataflow.OperatorID]bool),
		PerRecordCPU: make(map[dataflow.OperatorID]float64),
	}
	for _, op := range spec.Graph.Operators() {
		b.PerRecordCPU[op.ID] = op.Cost.CPU
	}
	switch spec.Name {
	case "Q1-sliding":
		bindQ1(b, spec, seed)
	case "Q2-join":
		bindQ2(b, spec, seed)
	case "Q3-inf":
		bindQ3(b, spec, seed)
	case "Q4-join":
		bindQ4(b, spec, seed)
	case "Q5-aggregate":
		bindQ5(b, spec, seed)
	case "Q6-session":
		bindQ6(b, spec, seed)
	default:
		return nil, fmt.Errorf("nexmark: no engine binding for query %q", spec.Name)
	}
	return b, nil
}

// recordSize picks the record size from the operator's profiled per-record
// output bytes, capped to keep in-memory tests light.
func recordSize(op *dataflow.Operator) int {
	n := int(op.Cost.Net)
	if n <= 0 {
		n = engine.DefaultRecordSize
	}
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

func countAgg(acc []byte, _ engine.Record) []byte {
	n := 0
	if acc != nil {
		_ = json.Unmarshal(acc, &n)
	}
	n++
	out, _ := json.Marshal(n)
	return out
}

func countResult(size int) engine.WindowResultFunc {
	return func(key string, start, end int64, acc []byte) engine.Record {
		n := 0
		_ = json.Unmarshal(acc, &n)
		return engine.Record{Key: key, Value: n, Time: end, Size: size}
	}
}

func sinkFactory(fn engine.SinkFunc) engine.Factory {
	return func(*engine.TaskContext) (any, error) { return engine.NewSink(fn), nil }
}

// bidSource emits a deterministic bid stream keyed by auction.
func bidSource(spec QuerySpec, op dataflow.OperatorID, seed int64) engine.Factory {
	size := recordSize(spec.Graph.Operator(op))
	return func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+int64(ctx.Index)*7919, 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			bid := gen.NextBid()
			return engine.Record{
				Key:   fmt.Sprintf("a%d", bid.Auction),
				Value: *bid, Time: bid.Timestamp, Size: size,
			}, true
		}), nil
	}
}

// bindQ1 implements Nexmark Q5 (hot items): count bids per auction over a
// sliding event-time window.
func bindQ1(b *EngineBinding, spec QuerySpec, seed int64) {
	b.Factories["src"] = bidSource(spec, "src", seed)
	mapSize := recordSize(spec.Graph.Operator("map"))
	b.Factories["map"] = func(*engine.TaskContext) (any, error) {
		return engine.NewMap(func(r engine.Record) engine.Record {
			r.Size = mapSize
			return r
		}), nil
	}
	b.Factories["slide-win"] = func(*engine.TaskContext) (any, error) {
		return engine.NewSlidingWindow(2000, 500, countAgg,
			countResult(recordSize(spec.Graph.Operator("slide-win")))), nil
	}
	b.Stateful["slide-win"] = true
	b.Factories["sink"] = sinkFactory(nil)
}

// bindQ2 implements Nexmark Q8 (monitor new users): join persons who
// registered in a window with auctions they opened in the same window.
func bindQ2(b *EngineBinding, spec QuerySpec, seed int64) {
	personSize := recordSize(spec.Graph.Operator("src-person"))
	auctionSize := recordSize(spec.Graph.Operator("src-auction"))
	b.Factories["src-person"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+1000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			p := gen.NextPerson()
			return engine.Record{Key: fmt.Sprintf("p%d", p.ID), Value: *p, Time: p.Timestamp, Size: personSize}, true
		}), nil
	}
	b.Factories["src-auction"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+2000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			// Auctions reference sellers from the same ID space.
			a := gen.NextAuction()
			return engine.Record{Key: fmt.Sprintf("p%d", a.Seller), Value: *a, Time: a.Timestamp, Size: auctionSize}, true
		}), nil
	}
	identity := func(*engine.TaskContext) (any, error) {
		return engine.NewMap(func(r engine.Record) engine.Record { return r }), nil
	}
	b.Factories["map-person"] = identity
	b.Factories["map-auction"] = identity
	b.Factories["tumble-join"] = func(*engine.TaskContext) (any, error) {
		return engine.NewTumblingWindowJoin(1000, func(l, r engine.Record) (engine.Record, bool) {
			return engine.Record{Key: l.Key, Value: [2]any{l.Value, r.Value}, Time: maxI64(l.Time, r.Time),
				Size: recordSize(spec.Graph.Operator("tumble-join"))}, true
		}), nil
	}
	b.Stateful["tumble-join"] = true
	b.Factories["sink"] = sinkFactory(nil)
}

// bindQ3 implements the inference pipeline: synthetic image frames flow
// through decode and a model-inference stage (the heavy compute is charged
// via PerRecordCPU; the operator computes a deterministic pseudo-score).
func bindQ3(b *EngineBinding, spec QuerySpec, seed int64) {
	srcSize := recordSize(spec.Graph.Operator("src"))
	decodeSize := recordSize(spec.Graph.Operator("decode"))
	b.Factories["src"] = func(ctx *engine.TaskContext) (any, error) {
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			return engine.Record{
				Key:   fmt.Sprintf("frame-%d-%d", task, i),
				Value: seed + task<<32 + i, Time: i, Size: srcSize,
			}, true
		}), nil
	}
	b.Factories["decode"] = func(*engine.TaskContext) (any, error) {
		return engine.NewMap(func(r engine.Record) engine.Record {
			r.Size = decodeSize
			return r
		}), nil
	}
	b.Factories["inference"] = func(*engine.TaskContext) (any, error) {
		return engine.NewMap(func(r engine.Record) engine.Record {
			// Deterministic pseudo-classification over the frame ID.
			x := r.Value.(int64)
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return engine.Record{Key: r.Key, Value: x % 1000, Time: r.Time,
				Size: recordSize(spec.Graph.Operator("inference"))}
		}), nil
	}
	b.Factories["sink"] = sinkFactory(nil)
}

// bindQ4 implements Nexmark Q3 (local item suggestion): filter persons by
// state and incrementally join them with auctions by seller.
func bindQ4(b *EngineBinding, spec QuerySpec, seed int64) {
	personSize := recordSize(spec.Graph.Operator("src-person"))
	auctionSize := recordSize(spec.Graph.Operator("src-auction"))
	b.Factories["src-person"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+3000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			p := gen.NextPerson()
			return engine.Record{Key: fmt.Sprintf("p%d", p.ID), Value: *p, Time: p.Timestamp, Size: personSize}, true
		}), nil
	}
	b.Factories["src-auction"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+4000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			a := gen.NextAuction()
			return engine.Record{Key: fmt.Sprintf("p%d", a.Seller), Value: *a, Time: a.Timestamp, Size: auctionSize}, true
		}), nil
	}
	b.Factories["filter"] = func(*engine.TaskContext) (any, error) {
		return engine.NewFilter(func(r engine.Record) bool {
			p := r.Value.(Person)
			return p.State == "OR" || p.State == "ID" || p.State == "CA" || p.State == "WA"
		}), nil
	}
	b.Factories["inc-join"] = func(*engine.TaskContext) (any, error) {
		return engine.NewIncrementalJoin(func(l, r engine.Record) (engine.Record, bool) {
			return engine.Record{Key: l.Key, Value: [2]any{l.Value, r.Value},
				Time: maxI64(l.Time, r.Time), Size: recordSize(spec.Graph.Operator("inc-join"))}, true
		}, 64), nil
	}
	b.Stateful["inc-join"] = true
	b.Factories["sink"] = sinkFactory(nil)
}

// bindQ5 implements Nexmark Q6 (average selling price per seller): join
// auctions with bids, then maintain a running average per seller.
func bindQ5(b *EngineBinding, spec QuerySpec, seed int64) {
	auctionSize := recordSize(spec.Graph.Operator("src-auction"))
	bidSize := recordSize(spec.Graph.Operator("src-bid"))
	b.Factories["src-auction"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+5000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			a := gen.NextAuction()
			return engine.Record{Key: fmt.Sprintf("a%d", a.ID), Value: *a, Time: a.Timestamp, Size: auctionSize}, true
		}), nil
	}
	b.Factories["src-bid"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+6000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			bid := gen.NextBid()
			return engine.Record{Key: fmt.Sprintf("a%d", bid.Auction), Value: *bid, Time: bid.Timestamp, Size: bidSize}, true
		}), nil
	}
	b.Factories["join"] = func(*engine.TaskContext) (any, error) {
		return engine.NewIncrementalJoin(func(l, r engine.Record) (engine.Record, bool) {
			a, bid := l.Value.(Auction), r.Value.(Bid)
			// Winning-price proxy: bids above the reserve count as sales.
			if bid.Price < a.Reserve {
				return engine.Record{}, false
			}
			return engine.Record{
				Key:   fmt.Sprintf("s%d", a.Seller),
				Value: bid.Price, Time: maxI64(l.Time, r.Time),
				Size: recordSize(spec.Graph.Operator("join")),
			}, true
		}, 16), nil
	}
	b.Stateful["join"] = true
	b.Factories["aggregate"] = func(*engine.TaskContext) (any, error) {
		return engine.NewProcess(func(ctx *engine.TaskContext, rec engine.Record, emit engine.Emit) error {
			type avgState struct {
				Sum   int64 `json:"s"`
				Count int64 `json:"c"`
			}
			var st avgState
			if buf, ok := ctx.State.Get(rec.Key); ok {
				if err := json.Unmarshal(buf, &st); err != nil {
					return err
				}
			}
			st.Sum += rec.Value.(int64)
			st.Count++
			buf, err := json.Marshal(st)
			if err != nil {
				return err
			}
			ctx.State.Put(rec.Key, buf)
			// Emit the updated average every 4th sale per seller.
			if st.Count%4 == 0 {
				emit(engine.Record{Key: rec.Key, Value: st.Sum / st.Count, Time: rec.Time,
					Size: recordSize(spec.Graph.Operator("aggregate"))})
			}
			return nil
		}), nil
	}
	b.Stateful["aggregate"] = true
	b.Factories["sink"] = sinkFactory(nil)
}

// bindQ6 implements Nexmark Q11 (user sessions): count each bidder's bids
// per session with a gap timeout.
func bindQ6(b *EngineBinding, spec QuerySpec, seed int64) {
	srcSize := recordSize(spec.Graph.Operator("src"))
	b.Factories["src"] = func(ctx *engine.TaskContext) (any, error) {
		gen := NewGenerator(seed+7000+int64(ctx.Index), 1)
		return engine.NewSource(func(task, i int64) (engine.Record, bool) {
			bid := gen.NextBid()
			return engine.Record{Key: fmt.Sprintf("u%d", bid.Bidder), Value: *bid, Time: bid.Timestamp, Size: srcSize}, true
		}), nil
	}
	b.Factories["map"] = func(*engine.TaskContext) (any, error) {
		return engine.NewMap(func(r engine.Record) engine.Record { return r }), nil
	}
	b.Factories["session-win"] = func(*engine.TaskContext) (any, error) {
		return engine.NewSessionWindow(500, countAgg,
			countResult(recordSize(spec.Graph.Operator("session-win")))), nil
	}
	b.Stateful["session-win"] = true
	b.Factories["sink"] = sinkFactory(nil)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
