package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"capsys/internal/dataflow"
)

// wirePoint stands in for a struct a pipeline package would register (the
// nexmark structs cannot be imported here: nexmark imports engine).
type wirePoint struct {
	X, Y int64
	Tag  string
}

func init() {
	RegisterValueCodec(WireTagUser+63, wirePoint{}, ValueCodec{
		Append: func(dst []byte, v any) []byte {
			p := v.(wirePoint)
			dst = appendVarint(dst, p.X)
			dst = appendVarint(dst, p.Y)
			return AppendWireString(dst, p.Tag)
		},
		Decode: func(r *WireReader) any {
			return wirePoint{X: r.Varint(), Y: r.Varint(), Tag: r.Str()}
		},
	})
}

// sameValue is reflect.DeepEqual that also holds for NaN floats (bit
// equality) and tells a nil slice or map from an empty one, as DeepEqual
// does: identity of dynamic type and of value.
func sameValue(a, b any) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(b.(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	case [2]any:
		y := b.([2]any)
		return sameValue(x[0], y[0]) && sameValue(x[1], y[1])
	case []any:
		y := b.([]any)
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y := b.(map[string]any)
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func sameEntries(t testing.TB, got, want []batchEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.rec.Key != w.rec.Key || g.rec.Time != w.rec.Time || g.rec.Size != w.rec.Size || g.ingest != w.ingest {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, w)
		}
		if !sameValue(g.rec.Value, w.rec.Value) {
			t.Fatalf("entry %d value: got %#v (%T), want %#v (%T)", i, g.rec.Value, g.rec.Value, w.rec.Value, w.rec.Value)
		}
	}
}

// decodeBatch is the receive path's two steps over one payload.
func decodeBatch(payload []byte) (batchHeader, []batchEntry, error) {
	r := WireReader{b: payload}
	h := r.batchHeader()
	if r.err != nil {
		return h, nil, r.err
	}
	entries, err := r.batchEntries(h.count)
	return h, entries, err
}

// everyValue holds one of each value shape the codec table knows, edge
// cases included.
func everyValue() []any {
	return []any{
		nil, true, false,
		int(-7), int(math.MaxInt64), int32(math.MinInt32), int64(math.MinInt64), int64(300), uint64(math.MaxUint64),
		float32(1.5), float32(math.Inf(-1)), math.NaN(), math.Inf(1), -0.0,
		"", "héllo", strings.Repeat("k", 300),
		[]byte(nil), []byte{}, []byte{0, 255, 7},
		[2]any{int64(1), "right"}, [2]any{nil, [2]any{wirePoint{1, -2, "in"}, 3.5}},
		[]any(nil), []any{}, []any{int64(1), "two", []any{3.0, nil}, []byte("b")},
		map[string]any(nil), map[string]any{}, map[string]any{"a": int64(1), "": []any{true}, "m": map[string]any{"z": uint64(9)}},
		wirePoint{X: math.MaxInt64, Y: math.MinInt64, Tag: "p"},
	}
}

func everyValueBatch() []batchEntry {
	var entries []batchEntry
	for i, v := range everyValue() {
		entries = append(entries, batchEntry{
			rec:    Record{Key: fmt.Sprintf("k%d", i%3), Value: v, Time: int64(i*1000) - 5000, Size: i % 4 * 100},
			ingest: 1_700_000_000_000_000_000 + int64(i),
		})
	}
	entries[1].rec.Key = ""
	entries[2].rec.Key = strings.Repeat("K", 64<<10)
	entries[3].rec.Time, entries[4].rec.Time = math.MinInt64, math.MaxInt64
	entries[5].ingest, entries[6].ingest = math.MaxInt64, math.MinInt64
	return entries
}

// TestWireDataPlaneRoundTrip covers the five hand-rolled layouts: each
// decodes to what was encoded, and each rejects trailing bytes and every
// strict prefix with ErrWirePayload. (The JSON control payloads are covered
// by the controller's TestWirePayloadRoundTrip.)
func TestWireDataPlaneRoundTrip(t *testing.T) {
	task := dataflow.TaskID{Op: "slide-win", Index: 3}
	sameTask := func(t *testing.T, got wireTask) {
		t.Helper()
		if string(got.op) != string(task.Op) || got.index != task.Index {
			t.Fatalf("task = %s[%d], want %v", got.op, got.index, task)
		}
	}
	entries := everyValueBatch()
	batch, err := appendBatch(nil, task, 1, 6, entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		decode  func(t *testing.T, p []byte) error
	}{
		{"hello", appendHello(nil, 2, 9), func(t *testing.T, p []byte) error {
			h, err := decodeHello(p)
			if err == nil && (h.from != 2 || h.attempt != 9) {
				t.Fatalf("hello = %+v", h)
			}
			return err
		}},
		{"credit", appendCredit(nil, task, 4096), func(t *testing.T, p []byte) error {
			c, err := decodeCredit(p)
			if err == nil {
				sameTask(t, c.task)
				if c.n != 4096 {
					t.Fatalf("credit n = %d", c.n)
				}
			}
			return err
		}},
		{"barrier", appendMark(nil, task, 1, 6, 42), func(t *testing.T, p []byte) error {
			m, err := decodeMark(p)
			if err == nil {
				sameTask(t, m.task)
				if m.in != 1 || m.ch != 6 || m.epoch != 42 {
					t.Fatalf("mark = %+v", m)
				}
			}
			return err
		}},
		{"eof", appendMark(nil, task, 0, 0, 0), func(t *testing.T, p []byte) error {
			m, err := decodeMark(p)
			if err == nil && (m.in != 0 || m.ch != 0 || m.epoch != 0) {
				t.Fatalf("mark = %+v", m)
			}
			return err
		}},
		{"data", batch, func(t *testing.T, p []byte) error {
			h, got, err := decodeBatch(p)
			if err == nil {
				sameTask(t, h.task)
				if h.in != 1 || h.ch != 6 {
					t.Fatalf("header = %+v", h)
				}
				sameEntries(t, got, entries)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(t, tc.payload); err != nil {
				t.Fatalf("decode(encode(x)): %v", err)
			}
			if err := tc.decode(t, append(bytes.Clone(tc.payload), 0)); !errors.Is(err, ErrWirePayload) {
				t.Errorf("trailing byte: %v, want ErrWirePayload", err)
			}
			step := 1 + len(tc.payload)/512
			for i := 0; i < len(tc.payload); i += step {
				if err := tc.decode(t, tc.payload[:i]); !errors.Is(err, ErrWirePayload) {
					t.Fatalf("prefix of %d/%d bytes: %v, want ErrWirePayload", i, len(tc.payload), err)
				}
			}
		})
	}
}

// TestWirePayloadBounds: a count or length the remaining bytes cannot hold
// is rejected with ErrWirePayload before anything is sized by it, nesting is
// bounded on both sides, and a type without a codec is an encode error.
func TestWirePayloadBounds(t *testing.T) {
	head := func(count uint64) []byte {
		p := appendTask(nil, dataflow.TaskID{Op: "snk"})
		p = append(p, 0, 0)
		return appendUvarint(p, count)
	}
	nested := func(depth int) any {
		var v any = int64(1)
		for i := 0; i < depth; i++ {
			v = []any{v}
		}
		return v
	}
	deep := bytes.Repeat([]byte{tagList, 2}, maxValueDepth+1) // 17 one-element lists
	for name, payload := range map[string][]byte{
		"record count":  append(head(1<<40), make([]byte, 64)...),
		"count by one":  append(head(3), make([]byte, 3*minRecordBytes-1)...),
		"key length":    append(head(1), 0xff, 0xff, 0x03, 'k', 0, 0, 0),
		"string length": append(head(1), 0, 0, 0, 0, tagString, 0xff, 0xff, 0xff, 0x7f),
		"bytes length":  append(head(1), 0, 0, 0, 0, tagBytes, 0xff, 0xff, 0xff, 0x7f),
		"list length":   append(head(1), 0, 0, 0, 0, tagList, 0xff, 0xff, 0xff, 0x7f),
		"map length":    append(head(1), 0, 0, 0, 0, tagMap, 0xff, 0xff, 0xff, 0x7f),
		"nesting":       append(append(head(1), 0, 0, 0, 0), append(deep, tagNil)...),
		"unknown tag":   append(head(1), 0, 0, 0, 0, WireTagUser+7),
		"varint":        append(head(1), 0, 0x80),
	} {
		before := allocatedBytes()
		_, _, err := decodeBatch(payload)
		if grew := allocatedBytes() - before; grew > 4096 {
			t.Errorf("%s: decoding %d hostile bytes allocated %d", name, len(payload), grew)
		}
		if !errors.Is(err, ErrWirePayload) {
			t.Errorf("%s: %v, want ErrWirePayload", name, err)
		}
	}
	ok, err := appendBatch(nil, dataflow.TaskID{}, 0, 0, []batchEntry{{rec: Record{Value: nested(maxValueDepth)}}})
	if err != nil {
		t.Fatalf("nesting at the bound: %v", err)
	}
	if _, _, err := decodeBatch(ok); err != nil {
		t.Fatalf("nesting at the bound does not decode: %v", err)
	}
	for name, v := range map[string]any{
		"nesting past the bound": nested(maxValueDepth + 1),
		"unregistered struct":    struct{ A int }{1},
		"pointer":                &wirePoint{},
		"nested unregistered":    []any{[2]any{int8(1), nil}},
	} {
		if _, err := appendBatch(nil, dataflow.TaskID{}, 0, 0, []batchEntry{{rec: Record{Value: v}}}); !errors.Is(err, ErrWireValue) {
			t.Errorf("%s: %v, want ErrWireValue", name, err)
		}
	}
}

func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestEncodePayloadRecords: the exported payload functions route a []Record
// to the batch codec (what the benchmark's engine.frame.* probes call), and
// everything else to JSON.
func TestEncodePayloadRecords(t *testing.T) {
	var recs []Record
	var want []batchEntry
	for _, e := range everyValueBatch() {
		recs = append(recs, e.rec)
		want = append(want, batchEntry{rec: e.rec})
	}
	p, err := EncodePayload(recs)
	if err != nil {
		t.Fatal(err)
	}
	_, viaWire, err := decodeBatch(p)
	if err != nil {
		t.Fatalf("EncodePayload([]Record) is not the data-frame layout: %v", err)
	}
	sameEntries(t, viaWire, want)
	var out []Record
	if err := DecodePayload(p, &out); err != nil {
		t.Fatal(err)
	}
	got := make([]batchEntry, len(out))
	for i := range out {
		got[i].rec = out[i]
	}
	sameEntries(t, got, want)
	if err := DecodePayload(p[:len(p)-1], &out); !errors.Is(err, ErrWirePayload) {
		t.Errorf("truncated batch: %v, want ErrWirePayload", err)
	}
	if _, err := EncodePayload([]Record{{Value: struct{ A int }{1}}}); err == nil {
		t.Error("unregistered value type encoded without error")
	}
}

func intBatch() []batchEntry {
	entries := make([]batchEntry, DefaultBatchSize)
	for i := range entries {
		entries[i] = batchEntry{rec: Record{Value: int64(i), Time: int64(i)}}
	}
	return entries
}

func structBatch() []batchEntry {
	entries := make([]batchEntry, DefaultBatchSize)
	for i := range entries {
		entries[i] = batchEntry{
			rec:    Record{Key: fmt.Sprintf("p%d", 1000+i), Value: wirePoint{X: int64(i), Y: 1_700_000_000_000, Tag: "springfield"}, Time: 1_700_000_000_000 + int64(i), Size: 150},
			ingest: 1_700_000_000_000_000_000 + int64(i)*1000,
		}
	}
	return entries
}

// TestWireCodecAllocs pins the steady state of the hot path: encoding a
// default-sized int batch into a warm buffer allocates nothing, and decoding
// it into a pooled entry slice allocates at most twice per batch. (The
// values are below 256, which Go boxes without allocating; boxing a larger
// int64 into Record.Value costs one 8-byte object per record on any path
// that produces a Record, the in-memory one included.)
func TestWireCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	task := dataflow.TaskID{Op: "snk", Index: 1}
	entries := intBatch()
	buf := make([]byte, 0, 4096)
	var err error
	if got := testing.AllocsPerRun(200, func() {
		buf = beginFrame(buf[:0], FrameData)
		if buf, err = appendBatch(buf, task, 0, 2, entries); err != nil {
			t.Fatal(err)
		}
		buf = sealFrame(buf, 0)
	}); got != 0 {
		t.Errorf("encode allocates %v times per batch, want 0", got)
	}
	f, _, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		r := WireReader{b: f.Payload}
		h := r.batchHeader()
		dec, err := r.batchEntries(h.count)
		if err != nil || len(dec) != len(entries) {
			t.Fatalf("decode: %d entries, %v", len(dec), err)
		}
		putBatch(dec)
	}); got > 2 {
		t.Errorf("decode allocates %v times per batch, want at most 2", got)
	}
}

var benchSink int

// BenchmarkWireCodec times the data-frame codec alone, per batch of
// DefaultBatchSize records: small ints (the fanout-net shape) and a
// registered struct with a key and an ingest stamp (the nexmark shape).
func BenchmarkWireCodec(b *testing.B) {
	task := dataflow.TaskID{Op: "join", Index: 1}
	for _, shape := range []struct {
		name    string
		entries []batchEntry
	}{{"int", intBatch()}, {"struct", structBatch()}} {
		payload, err := appendBatch(nil, task, 0, 1, shape.entries)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			buf := make([]byte, 0, 2*len(payload))
			for i := 0; i < b.N; i++ {
				buf = beginFrame(buf[:0], FrameData)
				buf, _ = appendBatch(buf, task, 0, 1, shape.entries)
				buf = sealFrame(buf, 0)
			}
			benchSink += len(buf)
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				r := WireReader{b: payload}
				h := r.batchHeader()
				dec, err := r.batchEntries(h.count)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(dec)
				putBatch(dec)
			}
		})
	}
}

// fuzzSrc turns fuzz input into a batch: every choice (how many records,
// which key shape, which value type, how deep) is read off the bytes, so the
// fuzzer steers the generator through every registered value type.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return v
}

func (s *fuzzSrc) int64() int64 {
	switch c := s.byte(); c % 8 {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	case 3:
		return -int64(s.byte())
	default:
		var v uint64
		for i := 0; i < int(c%8); i++ {
			v = v<<8 | uint64(s.byte())
		}
		return int64(v)
	}
}

func (s *fuzzSrc) str() string {
	n := int(s.byte() % 12)
	if n > len(s.b) {
		n = len(s.b)
	}
	v := string(s.b[:n])
	s.b = s.b[n:]
	return v
}

func (s *fuzzSrc) value(depth int) any {
	c := s.byte() % 20
	if depth >= maxValueDepth && c >= 14 && c <= 17 {
		c = 0 // no deeper: the encoder would refuse it
	}
	switch c {
	case 0:
		return nil
	case 1:
		return s.byte()%2 == 0
	case 2:
		return int(s.int64())
	case 3:
		return int32(s.int64())
	case 4:
		return s.int64()
	case 5:
		return uint64(s.int64())
	case 6:
		return math.Float32frombits(uint32(s.int64()))
	case 7:
		return math.Float64frombits(uint64(s.int64()))
	case 8:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}[s.byte()%4]
	case 9:
		return s.str()
	case 10:
		return []byte(nil)
	case 11:
		return []byte{}
	case 12:
		return []byte(s.str())
	case 13:
		return wirePoint{X: s.int64(), Y: s.int64(), Tag: s.str()}
	case 14:
		return [2]any{s.value(depth + 1), s.value(depth + 1)}
	case 15, 16:
		n := int(s.byte() % 4)
		if c == 16 && n == 0 {
			return []any(nil)
		}
		v := make([]any, n)
		for i := range v {
			v[i] = s.value(depth + 1)
		}
		return v
	case 17:
		n := int(s.byte() % 4)
		if n == 3 {
			return map[string]any(nil)
		}
		v := make(map[string]any, n)
		for i := 0; i < n; i++ {
			v[s.str()] = s.value(depth + 1)
		}
		return v
	default:
		return int64(s.byte())
	}
}

func (s *fuzzSrc) batch() []batchEntry {
	entries := make([]batchEntry, int(s.byte()%40))
	bigKey := false
	for i := range entries {
		e := &entries[i]
		switch k := s.byte() % 8; {
		case k == 0 && !bigKey:
			e.rec.Key, bigKey = strings.Repeat("K", 64<<10), true
		case k > 2:
			e.rec.Key = s.str()
		}
		e.rec.Time = s.int64()
		e.rec.Size = int(s.int64() >> 40)
		e.ingest = s.int64()
		e.rec.Value = s.value(0)
	}
	return entries
}

// FuzzWireBatchRoundTrip proves the data-frame codec's contracts. Over
// batches drawn from the fuzz input — every registered value type, empty and
// 64 KiB keys, negative and extreme times, zero sizes, NaN and infinite
// floats, nil against empty slices and maps — decode∘encode is the identity,
// dynamic types included. And no damaged payload — the input's own bytes
// read as one, every strict prefix of an encoded batch, every single-byte
// mutation of it — panics or allocates beyond a small multiple of its
// length: each decodes to some batch or fails with ErrWirePayload. (Past
// 2 KiB the prefixes and mutation sites are strided so that one execution
// decodes about 4 MiB in each sweep, whatever the payload's size.)
func FuzzWireBatchRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(1))
	f.Add([]byte{3, 5, 4, 9, 200, 0, 0, 4, 7, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0, 4, 13, 5, 9, 9, 2, 'h', 'i'}, byte(0x41))
	f.Add(bytes.Repeat([]byte{39, 0, 1, 2, 17, 2, 3, 'a', 'b', 'c', 14, 15, 3, 16, 0}, 12), byte(0xff))
	f.Add(bytes.Repeat([]byte{15, 1}, 40), byte(0x80))
	f.Fuzz(func(t *testing.T, data []byte, mask byte) {
		for _, hostile := range []func([]byte) error{
			func(p []byte) error { _, _, err := decodeBatch(p); return err },
			func(p []byte) error { _, err := decodeCredit(p); return err },
			func(p []byte) error { _, err := decodeMark(p); return err },
			func(p []byte) error { _, err := decodeHello(p); return err },
		} {
			if err := hostile(data); err != nil && !errors.Is(err, ErrWirePayload) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}

		src := fuzzSrc{b: data}
		task := dataflow.TaskID{Op: dataflow.OperatorID(src.str()), Index: int(src.byte())}
		in, ch := int(src.byte()), int(src.byte())
		entries := src.batch()
		payload, err := appendBatch(nil, task, in, ch, entries)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		h, got, err := decodeBatch(payload)
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if string(h.task.op) != string(task.Op) || h.task.index != task.Index || h.in != in || h.ch != ch {
			t.Fatalf("header = %+v, want %v in %d ch %d", h, task, in, ch)
		}
		sameEntries(t, got, entries)

		step := 1 + len(payload)*len(payload)/(4<<20)
		if mask == 0 {
			mask = 1
		}
		decodes := 0
		before := allocatedBytes()
		for i := 0; i < len(payload); i += step {
			if _, _, err := decodeBatch(payload[:i]); !errors.Is(err, ErrWirePayload) {
				t.Fatalf("prefix of %d/%d bytes: %v, want ErrWirePayload", i, len(payload), err)
			}
			decodes++
		}
		mut := bytes.Clone(payload)
		for i := 0; i < len(mut); i += step {
			mut[i] ^= mask
			_, dec, err := decodeBatch(mut)
			if err == nil {
				// Whatever it now says, it is a batch: it encodes again.
				if _, err := appendBatch(nil, task, in, ch, dec); err != nil {
					t.Fatalf("mutation at %d decoded to an unencodable batch: %v", i, err)
				}
			} else if !errors.Is(err, ErrWirePayload) {
				t.Fatalf("mutation at %d: untyped error %v", i, err)
			}
			mut[i] ^= mask
			decodes++
		}
		// 64 bytes per payload byte covers the widest legitimate expansion (a
		// 56-byte batchEntry per 5-byte record, a 16-byte interface per
		// 1-byte nil in a list, a map bucket per 2-byte entry) with room for
		// the re-encode above; a count-sized allocation would be far beyond.
		limit := uint64(decodes) * (64*uint64(len(payload)) + 4096)
		if grew := allocatedBytes() - before; grew > limit {
			t.Fatalf("%d decodes of a %d-byte payload allocated %d bytes (limit %d)", decodes, len(payload), grew, limit)
		}
	})
}

// FuzzSnapshotPayload feeds DecodeSnapshot whatever a worker's control
// connection might carry. A payload it accepts is a snapshot: encoded again
// it makes a SNAPSHOT frame whose payload decodes to the same attempt and
// snapshot, nil and empty slices apart, and every strict prefix of that
// payload is refused. Anything else is an error wrapping ErrWirePayload —
// never a panic, and never an allocation beyond a constant times the
// payload's length (the state images are slices of it, and the RR count is
// checked against the bytes that remain).
func FuzzSnapshotPayload(f *testing.F) {
	// Seeds are the committed corpus under testdata/fuzz/FuzzSnapshotPayload.
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Averaged over many decodes, so the harness's own allocations do
		// not count against one.
		const decodes = 64
		before := allocatedBytes()
		for i := 1; i < decodes; i++ {
			DecodeSnapshot(payload)
		}
		attempt, s, err := DecodeSnapshot(payload)
		if grew := allocatedBytes() - before; grew > decodes*(16*uint64(len(payload))+256)+16<<10 {
			t.Fatalf("%d decodes of a %d-byte payload allocated %d bytes", decodes, len(payload), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrWirePayload) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteSnapshotFrame(&buf, attempt, s); err != nil {
			t.Fatalf("encode: %v", err)
		}
		frame := buf.Bytes()
		fr, n, err := DecodeFrame(frame)
		if err != nil || n != len(frame) || fr.Type != FrameSnapshot {
			t.Fatalf("frame of %d bytes: type %d over %d bytes, %v", len(frame), fr.Type, n, err)
		}
		again, s2, err := DecodeSnapshot(fr.Payload)
		if err != nil || again != attempt || !reflect.DeepEqual(s2, s) {
			t.Fatalf("decode(encode(x)) = attempt %d %+v (%v), want attempt %d %+v", again, s2, err, attempt, s)
		}
		for i := range fr.Payload {
			if _, _, err := DecodeSnapshot(fr.Payload[:i]); !errors.Is(err, ErrWirePayload) {
				t.Fatalf("prefix of %d/%d bytes: %v, want ErrWirePayload", i, len(fr.Payload), err)
			}
		}
	})
}
