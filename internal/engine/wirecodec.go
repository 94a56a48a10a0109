package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"net"
	"reflect"
	"sort"

	"capsys/internal/dataflow"
)

// This file is the payload codec of the five data-plane frames and of the
// SNAPSHOT control frame. The other control frames are JSON (frame.go:
// EncodePayload) — they are rare and small, their bodies are deep structs
// that change with the control protocol, and reflection cost is invisible
// there. The data plane is the opposite: three frames per batch, one fixed
// shape each, so the bytes are laid out by hand, written in one pass into the
// frame's own buffer and read back without reflection. SNAPSHOT is laid out
// by hand for its size: it carries a task's whole state image, up to the
// coordinator when it is taken and back down to a worker to restore it.
//
// Integers are varints (encoding/binary's: unsigned LEB128, signed through
// zigzag); a string or byte run is a uvarint length followed by the bytes.
//
//	task    = str(op) uvarint(index)
//	hello   = uvarint(from worker) uvarint(attempt)     FrameDataHello
//	credit  = task uvarint(n)                           FrameCredit, FrameCreditReq
//	mark    = task uvarint(in) uvarint(ch) varint(epoch)  FrameBarrier, FrameEOF
//	data    = task uvarint(in) uvarint(ch) uvarint(count) FrameData
//	          count × str(key)
//	          count × varint(event time − previous event time)
//	          count × varint(size)
//	          count × varint(ingest stamp − previous ingest stamp)
//	          count × value
//	value   = tag byte, then the body the tag implies (see the tag constants)
//
// A data frame is columnar: one contiguous run per record field, so each
// decode loop touches one field and the deltas of the two time columns stay
// small (stamps inside a batch are near each other; differences wrap, so any
// int64 round-trips). Every count and length is checked against the bytes
// that remain before anything is sized by it.

// ErrWirePayload reports a data-plane payload that does not parse: a count
// or length past the bytes that remain, a truncated field, an unknown value
// tag, nesting beyond maxValueDepth, or trailing bytes. The connection that
// carried it is severed.
var ErrWirePayload = errors.New("wire: malformed payload")

// ErrWireValue reports a record value the codec cannot encode: a type with no
// registered codec, or composites nested past maxValueDepth. It is a fault of
// the data, not of any peer.
var ErrWireValue = errors.New("wire: value has no encoding")

// Value tags. Tags below WireTagUser are the engine's built-ins; a package
// that ships its own struct as Record.Value registers a codec under a tag
// of its own (RegisterValueCodec).
const (
	tagNil     byte = iota
	tagFalse        // bool
	tagTrue         // bool
	tagInt          // int: varint
	tagInt32        // varint
	tagInt64        // varint
	tagUint64       // uvarint
	tagFloat32      // 4 bytes little-endian IEEE bits
	tagFloat64      // 8 bytes little-endian IEEE bits
	tagString       // str
	tagBytes        // []byte: uvarint(len+1) bytes; 0 is a nil slice
	tagPair         // [2]any: two values
	tagList         // []any: uvarint(len+1) values; 0 is a nil slice
	tagMap          // map[string]any: uvarint(len+1) × (str value); 0 is a nil map

	// WireTagUser is the first tag available to RegisterValueCodec.
	WireTagUser byte = 64
)

// maxValueDepth bounds how deep [2]any / []any / map[string]any may nest, on
// both sides: the decoder cannot be driven into unbounded recursion, and the
// encoder refuses what the decoder would.
const maxValueDepth = 16

// minRecordBytes is the least a record occupies in a data frame: an empty
// key, one byte in each of the three varint columns, and a value tag.
const minRecordBytes = 5

// ValueCodec moves one concrete Record.Value type across the wire. Append
// receives a value of exactly the registered type; Decode reads the same
// bytes back through r (whose first malformed read latches ErrWirePayload)
// and returns a value of that type again.
type ValueCodec struct {
	Append func(dst []byte, v any) []byte
	Decode func(r *WireReader) any
}

var (
	valueCodecs   [256]*ValueCodec
	valueTagByTyp = map[reflect.Type]byte{}
)

// RegisterValueCodec makes values of sample's dynamic type shippable as
// Record.Value under tag. Call it from the init of the package that declares
// the type, so every process of a cluster holds the same table; a tag below
// WireTagUser, a tag or a type registered twice, or an incomplete codec
// panics there.
func RegisterValueCodec(tag byte, sample any, c ValueCodec) {
	typ := reflect.TypeOf(sample)
	if tag < WireTagUser || typ == nil || c.Append == nil || c.Decode == nil {
		panic(fmt.Sprintf("engine: RegisterValueCodec(%d, %T): tag below %d or incomplete codec", tag, sample, WireTagUser))
	}
	if _, dup := valueTagByTyp[typ]; dup || valueCodecs[tag] != nil {
		panic(fmt.Sprintf("engine: RegisterValueCodec(%d, %T): tag or type already registered", tag, sample))
	}
	valueCodecs[tag] = &c
	valueTagByTyp[typ] = tag
}

// --- encode -------------------------------------------------------------------

func putFrameBuf(bp *[]byte) {
	*bp = (*bp)[:0]
	frameBufPool.Put(bp)
}

func appendUvarint(dst []byte, x uint64) []byte {
	if x < 0x80 {
		return append(dst, byte(x))
	}
	return binary.AppendUvarint(dst, x)
}

func appendVarint(dst []byte, x int64) []byte {
	return appendUvarint(dst, uint64(x<<1)^uint64(x>>63))
}

// AppendWireString appends s as the wire's length-prefixed run, for
// ValueCodec.Append implementations.
func AppendWireString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendTask(dst []byte, t dataflow.TaskID) []byte {
	dst = AppendWireString(dst, string(t.Op))
	return appendUvarint(dst, uint64(t.Index))
}

func appendHello(dst []byte, from, attempt int) []byte {
	dst = appendUvarint(dst, uint64(from))
	return appendUvarint(dst, uint64(attempt))
}

func appendCredit(dst []byte, task dataflow.TaskID, n int64) []byte {
	dst = appendTask(dst, task)
	return appendUvarint(dst, uint64(n))
}

func appendMark(dst []byte, task dataflow.TaskID, in, ch int, epoch int64) []byte {
	dst = appendTask(dst, task)
	dst = appendUvarint(dst, uint64(in))
	dst = appendUvarint(dst, uint64(ch))
	return appendVarint(dst, epoch)
}

// appendBatch appends one data frame's payload. It fails only on a value the
// table has no codec for (or one nested past maxValueDepth).
func appendBatch(dst []byte, task dataflow.TaskID, in, ch int, entries []batchEntry) ([]byte, error) {
	dst = appendTask(dst, task)
	dst = appendUvarint(dst, uint64(in))
	dst = appendUvarint(dst, uint64(ch))
	dst = appendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		dst = AppendWireString(dst, entries[i].rec.Key)
	}
	var prev int64
	for i := range entries {
		t := entries[i].rec.Time
		dst = appendVarint(dst, t-prev)
		prev = t
	}
	for i := range entries {
		dst = appendVarint(dst, int64(entries[i].rec.Size))
	}
	prev = 0
	for i := range entries {
		t := entries[i].ingest
		dst = appendVarint(dst, t-prev)
		prev = t
	}
	var err error
	for i := range entries {
		if dst, err = appendValue(dst, entries[i].rec.Value, 0); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

func appendValue(dst []byte, v any, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case int:
		return appendVarint(append(dst, tagInt), int64(x)), nil
	case int32:
		return appendVarint(append(dst, tagInt32), int64(x)), nil
	case int64:
		return appendVarint(append(dst, tagInt64), x), nil
	case uint64:
		return appendUvarint(append(dst, tagUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(dst, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x)), nil
	case string:
		return AppendWireString(append(dst, tagString), x), nil
	case []byte:
		return append(appendLen(append(dst, tagBytes), len(x), x == nil), x...), nil
	case [2]any, []any, map[string]any:
		if depth >= maxValueDepth {
			return dst, fmt.Errorf("%w: nests deeper than %d", ErrWireValue, maxValueDepth)
		}
		return appendComposite(dst, v, depth+1)
	}
	tag, ok := valueTagByTyp[reflect.TypeOf(v)]
	if !ok {
		return dst, fmt.Errorf("%w: no codec registered for value type %T", ErrWireValue, v)
	}
	return valueCodecs[tag].Append(append(dst, tag), v), nil
}

// appendLen appends the uvarint(len+1) of a slice or map that can be nil.
func appendLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return appendUvarint(dst, uint64(n)+1)
}

func appendComposite(dst []byte, v any, depth int) ([]byte, error) {
	var err error
	switch x := v.(type) {
	case [2]any:
		if dst, err = appendValue(append(dst, tagPair), x[0], depth); err == nil {
			dst, err = appendValue(dst, x[1], depth)
		}
	case []any:
		dst = appendLen(append(dst, tagList), len(x), x == nil)
		for i := 0; i < len(x) && err == nil; i++ {
			dst, err = appendValue(dst, x[i], depth)
		}
	case map[string]any:
		dst = appendLen(append(dst, tagMap), len(x), x == nil)
		// In key order: a value buffered in keyed state must encode to the
		// same bytes every time, or snapshots stop being deterministic.
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i := 0; i < len(keys) && err == nil; i++ {
			dst, err = appendValue(AppendWireString(dst, keys[i]), x[keys[i]], depth)
		}
	}
	return dst, err
}

// --- decode -------------------------------------------------------------------

// WireReader reads wire primitives off a payload. The first malformed read
// latches an ErrWirePayload and every later read returns a zero value, so a
// decoder reads its fields straight through and the frame's decoder checks
// the error once, at the end.
type WireReader struct {
	b   []byte
	err error
}

func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrWirePayload, what)
	}
	r.b = nil
}

// done latches an error if bytes remain, and returns the latched error.
func (r *WireReader) done() error {
	if len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 {
		v := r.b[0]
		r.b = r.b[1:]
		return uint64(v)
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed (zigzag) varint.
func (r *WireReader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// index reads a small non-negative integer: a worker, task index, input or
// channel number.
func (r *WireReader) index() int {
	u := r.Uvarint()
	if u > math.MaxInt32 {
		r.fail("index out of range")
		return 0
	}
	return int(u)
}

// run reads a length-prefixed byte run. The result aliases the payload.
func (r *WireReader) run() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail("length exceeds remaining bytes")
		return nil
	}
	run := r.b[:n]
	r.b = r.b[n:]
	return run
}

// Str reads a length-prefixed string.
func (r *WireReader) Str() string { return string(r.run()) }

var zeros [8]byte

// fixed reads n (at most 8) raw bytes; zeros once the read has failed.
func (r *WireReader) fixed(n int) []byte {
	if len(r.b) < n {
		r.fail("truncated fixed-width field")
		return zeros[:n]
	}
	f := r.b[:n]
	r.b = r.b[n:]
	return f
}

// count reads a uvarint(len+1) element count for elements of at least
// `each` bytes; nilLen reports the 0 that stands for a nil slice or map.
func (r *WireReader) count(each int) (n int, nilLen bool) {
	u := r.Uvarint()
	if u == 0 {
		return 0, true
	}
	if u-1 > uint64(len(r.b)/each) {
		r.fail("element count exceeds remaining bytes")
		return 0, false
	}
	return int(u - 1), false
}

// wireTask is a task address as it sits in a payload: the operator name
// still aliases the frame's bytes, so resolving it against the attempt's
// operator table (netAttempt.resolve) allocates nothing.
type wireTask struct {
	op    []byte
	index int
}

func (r *WireReader) task() wireTask {
	return wireTask{op: r.run(), index: r.index()}
}

// wireOp is what the receive path needs to know about an operator named in
// a frame: its identity, and how many inputs a message for it may address.
type wireOp struct {
	id     dataflow.OperatorID
	inputs int
}

// resolve turns a frame's task address into the attempt's TaskID. ok is
// false for an operator this job does not have.
func (na *netAttempt) resolve(t wireTask) (task dataflow.TaskID, inputs int, ok bool) {
	op, ok := na.ops[string(t.op)]
	return dataflow.TaskID{Op: op.id, Index: t.index}, op.inputs, ok
}

type wireHello struct{ from, attempt int }

func decodeHello(payload []byte) (wireHello, error) {
	r := WireReader{b: payload}
	h := wireHello{from: r.index(), attempt: r.index()}
	return h, r.done()
}

// wireCredit is a credit request (FrameCreditReq, sender → receiver) or a
// credit grant (FrameCredit, receiver → sender).
type wireCredit struct {
	task wireTask
	n    int64
}

func decodeCredit(payload []byte) (wireCredit, error) {
	r := WireReader{b: payload}
	c := wireCredit{task: r.task()}
	n := r.Uvarint()
	if n > math.MaxInt64 {
		r.fail("credit count out of range")
	}
	c.n = int64(n)
	return c, r.done()
}

// wireMark is a barrier (FrameBarrier) or end-of-stream (FrameEOF, epoch 0)
// marker for one (task, channel).
type wireMark struct {
	task   wireTask
	in, ch int
	epoch  int64
}

func decodeMark(payload []byte) (wireMark, error) {
	r := WireReader{b: payload}
	m := wireMark{task: r.task(), in: r.index(), ch: r.index(), epoch: r.Varint()}
	return m, r.done()
}

// batchHeader is the address part of a data frame; count records follow.
type batchHeader struct {
	task   wireTask
	in, ch int
	count  int
}

// batchHeader reads a data frame's header and checks the declared record
// count against the bytes that remain, so nothing is ever sized by a count
// the payload could not hold.
func (r *WireReader) batchHeader() batchHeader {
	h := batchHeader{task: r.task(), in: r.index(), ch: r.index()}
	n := r.Uvarint()
	if n > uint64(len(r.b)/minRecordBytes) {
		r.fail("record count exceeds remaining bytes")
		return h
	}
	h.count = int(n)
	return h
}

// batchEntries decodes the count records behind a batchHeader (which has
// checked count against the payload) into a pooled entry slice; the caller
// owns it as it would a sender's batch.
func (r *WireReader) batchEntries(count int) ([]batchEntry, error) {
	dst := getBatch(count)[:count]
	for i := range dst {
		dst[i].rec.Key = r.Str()
	}
	var t int64
	for i := range dst {
		t += r.Varint()
		dst[i].rec.Time = t
	}
	for i := range dst {
		dst[i].rec.Size = int(r.Varint())
	}
	t = 0
	for i := range dst {
		t += r.Varint()
		dst[i].ingest = t
	}
	for i := range dst {
		dst[i].rec.Value = r.value(0)
	}
	if err := r.done(); err != nil {
		putBatch(dst)
		return nil, err
	}
	return dst, nil
}

func (r *WireReader) value(depth int) any {
	if len(r.b) == 0 {
		r.fail("truncated value")
		return nil
	}
	tag := r.b[0]
	r.b = r.b[1:]
	switch tag {
	case tagNil:
		return nil
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagInt:
		v := r.Varint()
		if int64(int(v)) != v {
			r.fail("int overflows this platform's int")
		}
		return int(v)
	case tagInt32:
		v := r.Varint()
		if int64(int32(v)) != v {
			r.fail("int32 out of range")
		}
		return int32(v)
	case tagInt64:
		return r.Varint()
	case tagUint64:
		return r.Uvarint()
	case tagFloat32:
		return math.Float32frombits(binary.LittleEndian.Uint32(r.fixed(4)))
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(r.fixed(8)))
	case tagString:
		return r.Str()
	case tagBytes:
		n, isNil := r.count(1)
		if isNil {
			return []byte(nil)
		}
		// Copied out: the payload buffer is reused for the next frame.
		v := append([]byte{}, r.b[:n]...)
		r.b = r.b[n:]
		return v
	case tagPair, tagList, tagMap:
		if depth >= maxValueDepth {
			r.fail("value nests too deep")
			return nil
		}
		return r.composite(tag, depth+1)
	}
	if c := valueCodecs[tag]; c != nil {
		return c.Decode(r)
	}
	r.fail("unknown value tag")
	return nil
}

func (r *WireReader) composite(tag byte, depth int) any {
	switch tag {
	case tagPair:
		return [2]any{r.value(depth), r.value(depth)}
	case tagList:
		n, isNil := r.count(1)
		if isNil {
			return []any(nil)
		}
		v := make([]any, n)
		for i := range v {
			v[i] = r.value(depth)
		}
		return v
	default: // tagMap
		n, isNil := r.count(2)
		if isNil {
			return map[string]any(nil)
		}
		v := make(map[string]any, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.Str()
			v[k] = r.value(depth)
		}
		return v
	}
}

// --- []Record payloads ----------------------------------------------------------

// encodeRecords and decodeRecords back EncodePayload / DecodePayload for a
// []Record: the data-frame layout with a zero address and zero ingest
// stamps, so a caller outside the package (the benchmark's codec probes)
// times the codec the wire runs.
func encodeRecords(recs []Record) ([]byte, error) {
	entries := getBatch(len(recs))
	for _, rec := range recs {
		entries = append(entries, batchEntry{rec: rec})
	}
	bp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bp)
	var err error
	*bp, err = appendBatch((*bp)[:0], dataflow.TaskID{}, 0, 0, entries)
	putBatch(entries)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), *bp...), nil
}

func decodeRecords(payload []byte, out *[]Record) error {
	r := WireReader{b: payload}
	h := r.batchHeader()
	if r.err != nil {
		return r.err
	}
	entries, err := r.batchEntries(h.count)
	if err != nil {
		return err
	}
	recs := make([]Record, len(entries))
	for i := range entries {
		recs[i] = entries[i].rec
	}
	*out = recs
	putBatch(entries)
	return nil
}

// --- state records --------------------------------------------------------------

// A join buffers a record in list state as one state record — the same
// primitives and the same value codec as a data frame, one record at a time:
//
//	staterec = byte(side) str(key) varint(event time) varint(size) value
//
// so keyed state holds records in the one encoding the wire uses, and a value
// read back from state has the Go type it was stored with. side is the join
// input the record arrived on, 0 or 1, in the record's first byte, so a join
// can tell the sides apart in a list without decoding.

// appendStateRecord fails only on a value appendValue has no codec for.
func appendStateRecord(dst []byte, side int, rec Record) ([]byte, error) {
	dst = append(dst, byte(side))
	dst = AppendWireString(dst, rec.Key)
	dst = appendVarint(dst, rec.Time)
	dst = appendVarint(dst, int64(rec.Size))
	return appendValue(dst, rec.Value, 0)
}

// decodeStateRecord returns an error wrapping ErrWirePayload for anything
// appendStateRecord could not have written.
func decodeStateRecord(buf []byte) (side int, rec Record, err error) {
	r := WireReader{b: buf}
	if side = int(r.fixed(1)[0]); side > 1 {
		r.fail("join side out of range")
	}
	rec = Record{Key: r.Str(), Time: r.Varint(), Size: int(r.Varint())}
	rec.Value = r.value(0)
	return side, rec, r.done()
}

// --- SNAPSHOT payloads ----------------------------------------------------------

// A SNAPSHOT frame ships one task's checkpoint contribution, tagged with an
// attempt: worker → coordinator as the attempt takes it, and coordinator →
// worker, tagged with the attempt about to be deployed, as that task's
// restore state:
//
//	snapshot = uvarint(attempt) task varint(epoch) varint(records in)
//	           varint(records out) varint(bytes out) varint(src offset)
//	           uvarint(len+1) len × varint(position)   RR
//	           uvarint(len+1) bytes                     OpState
//	           uvarint(len+1) bytes                     NSState
//
// where a length of 0 stands for a nil slice. The namespace image is written
// to the connection from where it lies, and read back as a slice of the frame.

// WriteSnapshotFrame writes attempt's SNAPSHOT frame for s to w as three
// pieces: the envelope, the fields and the operator image from a buffer of
// their size; the namespace image from s itself, uncopied; and the checksum.
// A TCP connection sends them with one writev. A payload past
// MaxFramePayload is an error naming its size, and nothing is written.
// Callers serialise writes to w.
func WriteSnapshotFrame(w io.Writer, attempt int, s *TaskSnapshot) error {
	n := uvarintSize(uint64(attempt)) + uvarintSize(uint64(len(s.Task.Op))) + len(s.Task.Op) + uvarintSize(uint64(s.Task.Index)) +
		varintSize(s.Epoch) + varintSize(s.RecordsIn) + varintSize(s.RecordsOut) + varintSize(s.BytesOut) + varintSize(s.SrcOffset) +
		uvarintSize(uint64(len(s.RR))+1) + uvarintSize(uint64(len(s.OpState))+1) + len(s.OpState) + uvarintSize(uint64(len(s.NSState))+1)
	for _, p := range s.RR {
		n += varintSize(int64(p))
	}
	if n+len(s.NSState) > MaxFramePayload {
		return fmt.Errorf("engine: SNAPSHOT payload of %d bytes exceeds the %d-byte frame cap (%w)", n+len(s.NSState), MaxFramePayload, ErrFrameTooLarge)
	}
	head := beginFrame(make([]byte, 0, frameHeaderLen+1+n+frameTrailerLen), FrameSnapshot)
	head = appendUvarint(head, uint64(attempt))
	head = appendTask(head, s.Task)
	for _, v := range [...]int64{s.Epoch, s.RecordsIn, s.RecordsOut, s.BytesOut, s.SrcOffset} {
		head = appendVarint(head, v)
	}
	head = appendLen(head, len(s.RR), s.RR == nil)
	for _, p := range s.RR {
		head = appendVarint(head, int64(p))
	}
	head = append(appendLen(head, len(s.OpState), s.OpState == nil), s.OpState...)
	head = appendLen(head, len(s.NSState), s.NSState == nil)
	binary.BigEndian.PutUint32(head, uint32(len(head)-frameHeaderLen+len(s.NSState)))
	sum := crc32.Update(crc32.ChecksumIEEE(head[frameHeaderLen:]), crc32.IEEETable, s.NSState)
	trailer := binary.BigEndian.AppendUint32(head[len(head):], sum)
	bufs := net.Buffers{head, s.NSState, trailer}
	_, err := bufs.WriteTo(w)
	return err
}

func uvarintSize(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintSize(x int64) int { return uvarintSize(uint64(x<<1) ^ uint64(x>>63)) }

// DecodeSnapshot decodes a SNAPSHOT payload; anything WriteSnapshotFrame
// could not have written is an error wrapping ErrWirePayload. The snapshot's
// OpState and NSState are slices of payload (their capacity ends where they
// do), so the caller hands the payload over: it must not be reused.
func DecodeSnapshot(payload []byte) (attempt int, s *TaskSnapshot, err error) {
	r := WireReader{b: payload}
	attempt = r.index()
	s = &TaskSnapshot{
		Task:  dataflow.TaskID{Op: dataflow.OperatorID(r.Str()), Index: r.index()},
		Epoch: r.Varint(), RecordsIn: r.Varint(), RecordsOut: r.Varint(), BytesOut: r.Varint(), SrcOffset: r.Varint(),
	}
	if n, isNil := r.count(1); !isNil {
		s.RR = make([]int, n)
		for i := range s.RR {
			v := r.Varint()
			if int64(int(v)) != v {
				r.fail("round-robin position overflows this platform's int")
			}
			s.RR[i] = int(v)
		}
	}
	s.OpState, s.NSState = r.bytesRun(), r.bytesRun()
	if err := r.done(); err != nil {
		return 0, nil, err
	}
	return attempt, s, nil
}

// bytesRun reads a uvarint(len+1) byte run, nil for 0, as a slice of the
// payload whose capacity ends where it does.
func (r *WireReader) bytesRun() []byte {
	n, isNil := r.count(1)
	if isNil || r.err != nil {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}
