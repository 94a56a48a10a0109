package engine

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameRoundTrip proves the codec's two contracts: every frame the
// encoder can produce decodes back to itself, and no mangled input —
// truncated, bit-flipped, oversized, or garbage — panics or allocates
// past the payload cap.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(FrameData), []byte("hello"))
	f.Add(byte(FrameCredit), []byte{0, 1, 2, 3, 255})
	f.Add(byte(FrameHeartbeat), []byte{})
	f.Add(byte(FrameSnapshot), bytes.Repeat([]byte{0xAB}, 512))
	f.Add(byte(0), []byte("invalid type"))
	f.Add(byte(250), []byte("unknown type"))
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		enc := AppendFrame(nil, Frame{Type: typ, Payload: payload})

		dec, n, err := DecodeFrame(enc)
		if typ == frameInvalid || typ >= frameTypeEnd {
			if err == nil {
				t.Fatalf("type %d decoded without error", typ)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if n != len(enc) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
		}
		if dec.Type != typ || !bytes.Equal(dec.Payload, payload) {
			t.Fatalf("round trip mismatch: got type %d payload %x", dec.Type, dec.Payload)
		}

		// Every strict prefix is a truncation error, never a panic.
		for i := 0; i < len(enc); i += 1 + len(enc)/16 {
			if _, _, err := DecodeFrame(enc[:i]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded cleanly", i, len(enc))
			}
		}

		// Any single-byte corruption is caught: length corruption yields a
		// truncation/cap/other error, body corruption fails the CRC.
		for i := 0; i < len(enc); i += 1 + len(enc)/16 {
			mut := bytes.Clone(enc)
			mut[i] ^= 0x41
			if _, _, err := DecodeFrame(mut); err == nil {
				t.Fatalf("corrupting byte %d went undetected", i)
			}
		}

		// The stream reader agrees with the buffer decoder.
		got, err := ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if got.Type != typ || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("ReadFrame mismatch: type %d payload %x", got.Type, got.Payload)
		}
	})
}

func TestFrameOversized(t *testing.T) {
	// A length prefix past the cap must be rejected before any body
	// allocation, in both the buffer and stream paths.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameLength) {
		t.Fatalf("oversized decode: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameLength) {
		t.Fatalf("oversized read: %v", err)
	}
	if err := WriteFrame(io.Discard, Frame{Type: FrameData, Payload: make([]byte, MaxFramePayload+1)}); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{Type: FrameDataHello, Payload: []byte("w1")},
		{Type: FrameData, Payload: bytes.Repeat([]byte{7}, 300)},
		{Type: FrameEOF, Payload: nil},
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("exhausted stream: %v", err)
	}
	// A stream cut mid-frame is an unexpected EOF, not a clean one.
	if err := WriteFrame(&buf, want[1]); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame cut: %v", err)
	}
}

func TestFramePayloadCodec(t *testing.T) {
	type body struct {
		Task  string
		Epoch int64
		Vals  []int64
	}
	in := body{Task: "win[2]", Epoch: 9, Vals: []int64{1, 2, 3}}
	b, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out body
	if err := DecodePayload(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Task != in.Task || out.Epoch != in.Epoch || len(out.Vals) != 3 {
		t.Fatalf("payload round trip: %+v", out)
	}
	// A control body is strict: a field its type lacks, a value of the wrong
	// type, trailing bytes or no JSON at all is refused, wrapping
	// ErrControlPayload.
	for _, bad := range []string{`{"Task":"x","Extra":1}`, `{"Epoch":"9"}`, `{"Epoch":9} {}`, `{"Epoch":9}]`, `{"Epoch"`, "", "\x00"} {
		if err := DecodePayload([]byte(bad), &out); !errors.Is(err, ErrControlPayload) {
			t.Errorf("%q: %v, want ErrControlPayload", bad, err)
		}
	}
	if err := DecodePayload([]byte(" {\"Epoch\":9}\n"), &out); err != nil {
		t.Errorf("surrounding white space refused: %v", err)
	}
}
