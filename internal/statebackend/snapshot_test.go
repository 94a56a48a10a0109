package statebackend

import (
	"bytes"
	"testing"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewStore(nil, Options{})
	ns := src.Namespace("task")
	// Binary keys (window keys embed big-endian timestamps, including bytes
	// that are invalid UTF-8 on their own) must survive the round trip.
	binKey := "k\x00" + string([]byte{0, 0, 0, 0, 0, 0, 0, 0xC8})
	ns.Put(binKey, []byte("v1"))
	ns.Put("plain", []byte("v2"))
	ns.Append("list", []byte("a"))
	ns.Append("list", []byte("b"))

	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore(nil, Options{})
	ns2 := dst.Namespace("task")
	if err := ns2.Restore(img); err != nil {
		t.Fatal(err)
	}
	if v, ok := ns2.Get(binKey); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Errorf("binary key lost in round trip: %q %v", v, ok)
	}
	if v, ok := ns2.Get("plain"); !ok || !bytes.Equal(v, []byte("v2")) {
		t.Errorf("plain key lost: %q %v", v, ok)
	}
	if l := ns2.List("list"); len(l) != 2 || !bytes.Equal(l[0], []byte("a")) || !bytes.Equal(l[1], []byte("b")) {
		t.Errorf("list state lost: %v", l)
	}
	if got, want := ns2.Stats().StoredByte, ns.Stats().StoredByte; got != want {
		t.Errorf("restored byte accounting %d, want %d", got, want)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) []byte {
		ns := NewStore(nil, Options{}).Namespace("t")
		for _, k := range order {
			ns.Put(k, []byte("v-"+k))
			ns.Append("l-"+k, []byte(k))
		}
		img, err := ns.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	if !bytes.Equal(a, b) {
		t.Error("snapshot bytes depend on insertion order")
	}
}

func TestRestoreEmptyClears(t *testing.T) {
	ns := NewStore(nil, Options{}).Namespace("t")
	ns.Put("k", []byte("v"))
	if err := ns.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.Get("k"); ok {
		t.Error("empty restore did not clear namespace")
	}
	if ns.Stats().StoredByte != 0 {
		t.Errorf("bytes = %d after clear", ns.Stats().StoredByte)
	}
}

func TestSnapshotChargesAccounting(t *testing.T) {
	var reads, writes int
	ns := NewStore(func(r, w int) { reads += r; writes += w }, Options{}).Namespace("t")
	ns.Put("key", []byte("value"))
	reads, writes = 0, 0
	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if reads == 0 || writes == 0 {
		t.Errorf("snapshot charged reads=%d writes=%d, want both > 0", reads, writes)
	}
	reads, writes = 0, 0
	if err := ns.Restore(img); err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Errorf("restore charged writes=%d, want > 0", writes)
	}
}

// FuzzNamespaceRestore feeds Restore whatever bytes a coordinator's snapshot
// store or another worker might hand it. A rejected image leaves the
// namespace exactly as it was. An accepted one is a complete description of
// the namespace: its own Snapshot restores into a second namespace with the
// same image, the same stored-byte and key accounting, and splits 1→2→1
// through Repartition back to the same bytes. Never a panic.
func FuzzNamespaceRestore(f *testing.F) {
	real := NewStore(nil, Options{NumKeyGroups: 8}).Namespace("seed")
	real.Put("k1\x00\x00\x00\x00\x00\x00\x00\x00\x64", []byte("3"))
	real.Put("session", append(make([]byte, 16), '7'))
	real.Append("k2\x00s0", []byte{0, 2, 'k', '2', 2, 0, 5, 14})
	img, err := real.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	// The hostile seeds (a key twice, a key filed under two groups, the flat
	// pre-key-group layout, groups out of range or repeated, bad base64) are
	// the committed corpus under testdata/fuzz/FuzzNamespaceRestore.
	f.Add(img, uint8(7))
	f.Fuzz(func(t *testing.T, image []byte, rawG uint8) {
		G := int(rawG)%64 + 1
		snapshot := func(ns *Namespace) []byte {
			img, err := ns.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
		store := NewStore(nil, Options{NumKeyGroups: G})
		ns := store.Namespace("a")
		ns.Put("kept", []byte("v"))
		ns.Append("kept-list", []byte("e"))
		before := snapshot(ns)
		if err := ns.Restore(image); err != nil {
			if after := snapshot(ns); !bytes.Equal(after, before) {
				t.Fatalf("rejected image changed the namespace:\n%s\n%s", before, after)
			}
			return
		}
		img1 := snapshot(ns)
		ns2 := store.Namespace("b")
		if err := ns2.Restore(img1); err != nil {
			t.Fatalf("a namespace's own snapshot does not restore: %v\n%s", err, img1)
		}
		if img2 := snapshot(ns2); !bytes.Equal(img1, img2) {
			t.Fatalf("snapshot is not a fixed point of restore:\n%s\n%s", img1, img2)
		}
		if ns.StoredBytes() != ns2.StoredBytes() || ns.Keys() != ns2.Keys() {
			t.Fatalf("accounting after restoring the fuzzed image: %d bytes %d keys; after its own snapshot: %d bytes %d keys",
				ns.StoredBytes(), ns.Keys(), ns2.StoredBytes(), ns2.Keys())
		}
		if G < 2 {
			return
		}
		split, _, err := Repartition([][]byte{image}, 1, 2, G)
		if err != nil {
			t.Fatalf("Restore accepted an image Repartition refuses: %v", err)
		}
		merged, _, err := Repartition(split, 2, 1, G)
		if err != nil {
			t.Fatal(err)
		}
		if err := ns2.Restore(merged[0]); err != nil {
			t.Fatal(err)
		}
		if img3 := snapshot(ns2); !bytes.Equal(img1, img3) {
			t.Fatalf("1→2→1 repartition of the accepted image lost or moved state:\n%s\n%s", img1, img3)
		}
	})
}
