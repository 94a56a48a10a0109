package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// The network data plane and the controller RPC surface share one wire
// format: length-prefixed, checksummed frames. The layout is
//
//	offset 0: uint32 big-endian N = 1 + len(payload)
//	offset 4: frame type byte (never zero)
//	offset 5: payload (N-1 bytes: gob on control frames, the hand-rolled
//	          layouts of wirecodec.go on the data-plane frames)
//	offset 4+N: uint32 big-endian CRC32 (IEEE) over bytes [4, 4+N)
//
// The length covers the type byte so a zero length is unambiguously
// invalid, and the checksum covers type+payload so a flipped type bit is
// caught like any payload corruption. Payloads are capped at
// MaxFramePayload: a reader rejects an oversized length before
// allocating, so a corrupt or adversarial prefix cannot balloon memory.
const (
	frameHeaderLen  = 4
	frameTrailerLen = 4

	// MaxFramePayload bounds a single frame's payload. Data batches are at
	// most BatchSize records and snapshots are bounded by operator state,
	// both far under this; the cap exists so a corrupt length prefix fails
	// fast instead of triggering a giant allocation.
	MaxFramePayload = 8 << 20
)

// Frame types. Data-plane frames travel on per-worker-pair data
// connections; control frames travel on the worker-coordinator control
// connection. They share one namespace so a frame that strays onto the
// wrong connection is recognizably foreign rather than misparsed.
const (
	frameInvalid byte = iota

	// Data plane.
	FrameDataHello // dialer identity: {from worker, attempt}
	FrameData      // batch of records for one (task, channel)
	FrameBarrier   // checkpoint barrier for one (task, channel)
	FrameEOF       // end-of-stream for one (task, channel)
	FrameCredit    // receiver grants sender n records of credit for a task
	FrameCreditReq // sender requests n records of credit for a pending batch

	// Control plane.
	FrameHello      // worker -> coordinator: join with advertised data address
	FrameWelcome    // coordinator -> worker: assigned worker index
	FrameDeploy     // coordinator -> worker: plan, peers, restore snapshots
	FrameReady      // worker -> coordinator: attempt built, listening
	FrameStart      // coordinator -> worker: begin the attempt
	FrameEpochStart // worker -> coordinator: source opened a checkpoint epoch
	FrameSnapshot   // worker -> coordinator: one task's checkpoint state
	FrameDone       // worker -> coordinator: attempt finished, report attached
	FrameAbort      // coordinator -> worker: abort the running attempt
	FrameStopped    // worker -> coordinator: abort acknowledged, progress attached
	FrameHeartbeat  // worker -> coordinator: liveness
	FramePeerDown   // worker -> coordinator: a data peer became unreachable
	FrameShutdown   // coordinator -> worker: leave the join loop
	FrameTrace      // worker -> coordinator: batched tracer events for the cluster timeline

	frameTypeEnd // sentinel: first invalid type value
)

// Frame is one unit on the wire: a type byte plus an opaque payload.
type Frame struct {
	Type    byte
	Payload []byte
}

var (
	// ErrFrameTruncated reports a buffer that ends mid-frame.
	ErrFrameTruncated = errors.New("frame: truncated")
	// ErrFrameChecksum reports a checksum mismatch (corruption).
	ErrFrameChecksum = errors.New("frame: checksum mismatch")
)

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = beginFrame(dst, f.Type)
	dst = append(dst, f.Payload...)
	return sealFrame(dst, start)
}

// beginFrame opens a frame at the end of dst — the length prefix (filled in
// by sealFrame) and the type byte — so a payload can be encoded straight
// behind it instead of being built elsewhere and copied in.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst, 0, 0, 0, 0, typ)
}

// sealFrame closes the frame beginFrame opened at offset start: it writes
// the length of everything appended since and appends the checksum.
func sealFrame(dst []byte, start int) []byte {
	body := dst[start+frameHeaderLen:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderLen {
		return Frame{}, 0, ErrFrameTruncated
	}
	n := binary.BigEndian.Uint32(b)
	if n == 0 {
		return Frame{}, 0, errors.New("frame: zero length")
	}
	if n > MaxFramePayload+1 {
		return Frame{}, 0, fmt.Errorf("frame: length %d exceeds cap %d", n, MaxFramePayload+1)
	}
	total := frameHeaderLen + int(n) + frameTrailerLen
	if len(b) < total {
		return Frame{}, 0, ErrFrameTruncated
	}
	body := b[frameHeaderLen : frameHeaderLen+int(n)]
	sum := binary.BigEndian.Uint32(b[frameHeaderLen+int(n):])
	if crc32.ChecksumIEEE(body) != sum {
		return Frame{}, 0, ErrFrameChecksum
	}
	typ := body[0]
	if typ == frameInvalid || typ >= frameTypeEnd {
		return Frame{}, 0, fmt.Errorf("frame: unknown type %d", typ)
	}
	return Frame{Type: typ, Payload: body[1:]}, total, nil
}

// frameBufPool recycles encode buffers across WriteFrame calls (control
// frames; a data-plane target owns its one frame buffer, see netTarget) — the
// same steady-state discipline the exchange layer applies to batch-entry
// slices. Buffers are pooled as *[]byte to keep the pool-interface box
// allocation-free.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// WriteFrame writes one encoded frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("frame: payload %d exceeds cap %d", len(f.Payload), MaxFramePayload)
	}
	bp := frameBufPool.Get().(*[]byte)
	*bp = AppendFrame((*bp)[:0], f)
	_, err := w.Write(*bp)
	putFrameBuf(bp)
	return err
}

// ReadFrame reads one frame from r. The length prefix is validated
// against MaxFramePayload before the body is allocated.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := readFrameInto(r, nil)
	return f, err
}

// readFrameInto is ReadFrame over a caller-kept buffer: the frame is read
// into buf (grown when too small, and returned for the next call), so the
// payload is valid only until then. A data connection reads every frame of
// its life through one buffer.
func readFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return Frame{}, buf, errors.New("frame: zero length")
	}
	if n > MaxFramePayload+1 {
		return Frame{}, buf, fmt.Errorf("frame: length %d exceeds cap %d", n, MaxFramePayload+1)
	}
	need := int(n) + frameTrailerLen
	if cap(buf) < need {
		// Doubling keeps a kept buffer from being re-made for every frame a
		// little larger than the last; from ReadFrame's nil it is exact.
		buf = make([]byte, max(need, 2*cap(buf)))
	}
	rest := buf[:need]
	if _, err := io.ReadFull(r, rest); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	body := rest[:n]
	sum := binary.BigEndian.Uint32(rest[n:])
	if crc32.ChecksumIEEE(body) != sum {
		return Frame{}, buf, ErrFrameChecksum
	}
	typ := body[0]
	if typ == frameInvalid || typ >= frameTypeEnd {
		return Frame{}, buf, fmt.Errorf("frame: unknown type %d", typ)
	}
	return Frame{Type: typ, Payload: body[1:]}, buf, nil
}

// EncodePayload encodes v for use as a frame payload: gob for a control
// frame's body, the data-frame batch layout (wirecodec.go) for a []Record.
func EncodePayload(v any) ([]byte, error) {
	if recs, ok := v.([]Record); ok {
		return encodeRecords(recs)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	if buf.Len() > MaxFramePayload {
		return nil, fmt.Errorf("frame: encoded payload %d exceeds cap %d", buf.Len(), MaxFramePayload)
	}
	return buf.Bytes(), nil
}

// DecodePayload decodes a frame payload into v, the inverse of
// EncodePayload: v is a *[]Record for a batch, a pointer to the body's type
// for a control frame.
func DecodePayload(b []byte, v any) error {
	if recs, ok := v.(*[]Record); ok {
		return decodeRecords(b, recs)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}
