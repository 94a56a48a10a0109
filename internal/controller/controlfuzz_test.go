package controller

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"capsys/internal/dataflow"
	"capsys/internal/engine"
	"capsys/internal/metrics"
	"capsys/internal/telemetry"
)

// controlDecoders are the decode entry points the coordinator and the worker
// call on a control frame's JSON body, one per frame type.
var controlDecoders = []struct {
	frame  string
	decode func([]byte) (any, error)
}{
	{"HELLO", decodeInto[wireJoin]},
	{"WELCOME", decodeInto[wireWelcome]},
	{"DEPLOY", decodeInto[DeploySpec]},
	{"READY", decodeInto[wireReady]},
	{"START", decodeInto[wireStart]},
	{"EPOCH_START", decodeInto[wireEpoch]},
	{"PEERDOWN", decodeInto[wirePeer]},
	{"DONE/STOPPED", func(b []byte) (any, error) { return decodeReport(b) }},
	{"HEARTBEAT", func(b []byte) (any, error) { return decodeHeartbeat(b, "w0") }},
}

func decodeInto[T any](b []byte) (any, error) {
	v := new(T)
	if err := engine.DecodePayload(b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Allocation bound of one control decode: JSON sizes nothing from a count
// the sender declares, so what a payload makes its reader allocate grows
// with the payload's length. The worst shape measured is a heartbeat whose
// events are empty objects ("{},": three bytes become a ~160-byte
// telemetry.Event in a slice that grows by copying), about 240 bytes per
// payload byte; decodeAllocPerByte leaves twice that, and decodeAllocSlack
// covers the decoder's fixed buffers.
const (
	decodeAllocPerByte = 512
	decodeAllocSlack   = 64 << 10
)

// FuzzControlPayload feeds arbitrary bytes to every control decode entry
// point. Each input ends in an error wrapping engine.ErrControlPayload or in
// a value that encodes again and decodes to itself; none panics, and none
// allocates more than decodeAllocPerByte per payload byte plus
// decodeAllocSlack. The seeds are real payloads of every control frame.
func FuzzControlPayload(f *testing.F) {
	win := dataflow.TaskID{Op: "win", Index: 1}
	tel := telemetry.New()
	tel.Registry().Counter("net.frames_sent").Inc(5)
	tel.Registry().Gauge("queue.depth").Set(2)
	tel.Histogram("net.credit_wait_seconds").Observe(0.002)
	tel.SetGaugeFunc("worker_saturation", map[string]string{"resource": "cpu"}, func() float64 { return 0.25 })
	for _, v := range []any{
		wireJoin{Proto: distProtoVersion},
		wireWelcome{Worker: 1},
		DeploySpec{
			Query: "Q1-sliding", Seed: 5, RecordsPerSource: 800, SnapshotInterval: 100, KeyGroups: 128,
			Workers: []engine.WorkerSpec{{ID: "w0", Slots: 4, Cores: 2, IOBps: 1e6, NetBps: 1e9}},
			Assign:  []TaskAssignment{{Task: win, Worker: 0}, {Task: dataflow.TaskID{Op: "Q[1]", Index: 0}, Worker: 0}},
			Attempt: 2, RestoreEpoch: 3,
		},
		wireReady{Attempt: 2, Addr: "127.0.0.1:4100"},
		wireStart{Attempt: 2, Peers: map[int]string{0: "127.0.0.1:4100", 1: "127.0.0.1:4101"}},
		wireEpoch{Attempt: 2, Epoch: 3},
		wirePeer{Attempt: 2, Peer: 1},
		&engine.WorkerReport{
			Worker: 1, Attempt: 2, Completed: true,
			Tasks:   map[dataflow.TaskID]engine.TaskStats{win: {RecordsIn: 300, BusyTime: time.Millisecond, Stateful: true}},
			Metrics: metrics.TypedValues{Gauges: map[string]float64{"worker.w1.io_saturation": 0.5}},
		},
		wireHeartbeat{
			Stats: newHBSampler(tel).sample(),
			Events: []telemetry.Event{{Seq: 3, Src: "w0", WSeq: 3, Kind: telemetry.EventJobComplete, Attempt: 2,
				Attrs: map[string]any{"sink_records": 1600, "transport": "network"}}},
			Dropped: 1,
		},
	} {
		b, err := engine.EncodePayload(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[{},{},{},{},{},{},{},{}]`))
	f.Add([]byte(`{"Assign":[{},{},{},{}]} {}`))
	f.Add([]byte(`{"Events":[{},{},{}],"Stats":{"Hists":{"x":{"Bounds":[0,0,0]}}}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, d := range controlDecoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := d.decode(payload)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n > uint64(decodeAllocPerByte*len(payload)+decodeAllocSlack) {
				t.Fatalf("%s: decoding %d bytes allocated %d", d.frame, len(payload), n)
			}
			if err != nil {
				if !errors.Is(err, engine.ErrControlPayload) {
					t.Fatalf("%s: error %v does not wrap engine.ErrControlPayload", d.frame, err)
				}
				continue
			}
			b, err := engine.EncodePayload(v)
			if err != nil {
				t.Fatalf("%s: a decoded %+v does not encode: %v", d.frame, v, err)
			}
			again, err := d.decode(b)
			if err != nil || !reflect.DeepEqual(v, again) {
				t.Fatalf("%s: %+v re-decoded as %+v (%v)", d.frame, v, again, err)
			}
		}
	})
}
