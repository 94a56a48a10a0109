package statebackend

import (
	"bytes"
	"fmt"
	"math/rand"
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

// TestSnapshotDeterministic: the image is a function of the contents alone —
// not of insertion order, nor of keys that came and went, nor of how a run's
// capacity grew.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string, churn bool) []byte {
		ns := NewStore(nil, Options{}).Namespace("t")
		for _, k := range order {
			ns.Put(k, []byte("v-"+k))
			ns.Put(testWinKey(k, 500), []byte{1})
			ns.Append("l-"+k, []byte(k))
			ns.Append("l-"+k, nil)
		}
		if churn {
			for _, k := range order {
				ns.Put("gone-"+k, []byte("x"))
				ns.Delete("gone-" + k)
				ns.Delete(k)
				ns.Put(k, []byte("v-"+k))
				ns.ClearList("l-" + k)
				ns.Append("l-"+k, []byte(k))
				ns.Append("l-"+k, nil)
			}
		}
		img, err := ns.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := build([]string{"x", "y", "z", "k\x001"}, false)
	for i, got := range [][]byte{
		build([]string{"z", "x", "k\x001", "y"}, false),
		build([]string{"k\x001", "z", "y", "x"}, false),
		build([]string{"y", "k\x001", "x", "z"}, true),
	} {
		if !bytes.Equal(got, want) {
			t.Errorf("variant %d: snapshot bytes depend on more than the contents\n got %x\nwant %x", i, got, want)
		}
	}
}

// TestSnapshotKeyOrder: the snapshot sorts a group on the leading key bytes
// its index leaves room for, then puts ties in full key order. Keys that
// share long prefixes, differ only past them or only in length, hold NULs and
// 0xff bytes, and fill a group with thousands of entries must still come out
// strictly ascending — the decoder refuses anything else — and in the same
// bytes whatever order they were written in.
func TestSnapshotKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte{0, 1, 'a', 'b', 0xfe, 0xff}
	var keys []string
	seen := map[string]bool{}
	for len(keys) < 5000 {
		k := make([]byte, rng.Intn(14))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, string(k))
		}
	}
	image := func(keys []string) []byte {
		ns := NewStore(nil, Options{NumKeyGroups: 2}).Namespace("t")
		for _, k := range keys {
			ns.Put(k, []byte(k))
			ns.Append(k, []byte{1})
		}
		img, err := ns.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := NewStore(nil, Options{NumKeyGroups: 2}).Namespace("r").Restore(img); err != nil {
			t.Fatal(err)
		}
		return img
	}
	want := image(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if !bytes.Equal(image(keys), want) {
		t.Error("snapshot bytes depend on the order keys were written in")
	}
}

// TestListViewsStayValid: List hands out views of the namespace's own bytes,
// and nothing the namespace does later changes what they show — not Appends
// that regrow the run, not dropping the list, not a Restore — nor does a
// Snapshot encoding the same bytes from another goroutine race with them.
func TestListViewsStayValid(t *testing.T) {
	ns := NewStore(nil, Options{}).Namespace("t")
	want := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xA5}, 300)}
	for _, v := range want {
		ns.Append("k", v)
	}
	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	views := ns.List("k")
	check := func(when string) {
		t.Helper()
		if len(views) != len(want) {
			t.Fatalf("%s: %d views, want %d", when, len(views), len(want))
		}
		for i := range want {
			if !bytes.Equal(views[i], want[i]) {
				t.Fatalf("%s: view %d is %q, want %q", when, i, views[i], want[i])
			}
		}
	}
	check("at first")
	if grown := append(views[0], "!!"...); &grown[0] == &views[0][0] {
		t.Error("appending to a view writes into the run behind it")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := ns.Snapshot(); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		ns.Append("k", bytes.Repeat([]byte{byte(i)}, i))
		ns.Put("kv", []byte{byte(i)})
		if l := ns.List("k"); len(l) != len(want)+i+1 || len(l[len(l)-1]) != i {
			t.Fatalf("after %d more appends List holds %d values, the last of %d bytes", i+1, len(l), len(l[len(l)-1]))
		}
	}
	<-done
	check("after appends that regrew the run")
	if n := ns.ClearList("k"); n != len(want)+200 {
		t.Errorf("ClearList = %d, want %d", n, len(want)+200)
	}
	ns.Append("k", []byte("another list altogether"))
	check("after ClearList")
	if err := ns.Restore(img); err != nil {
		t.Fatal(err)
	}
	check("after Restore")
	views = ns.List("k")
	check("restored")
	for i := 0; i < 10; i++ {
		ns.Append("k", []byte("grows a restored run"))
	}
	check("after appends to the restored run")
	if got, err := ns.Snapshot(); err != nil || bytes.Equal(got, img) || ns.Restore(img) != nil {
		t.Fatalf("snapshot after more appends: err=%v, same image as before: %v", err, bytes.Equal(got, img))
	}
	if got, _ := ns.Snapshot(); !bytes.Equal(got, img) {
		t.Error("appending to a restored namespace wrote into the image it was restored from")
	}
}

// TestSnapshotAllocsIndependentOfValues: a snapshot allocates per namespace,
// not per key and not per value.
func TestSnapshotAllocsIndependentOfValues(t *testing.T) {
	allocs := func(keys, valuesPerKey int) float64 {
		ns := NewStore(nil, Options{}).Namespace("t")
		for k := 0; k < keys; k++ {
			ns.Put(testWinKey(fmt.Sprint("key-", k), 0), []byte{1, 2})
			for v := 0; v < valuesPerKey; v++ {
				ns.Append(fmt.Sprint("key-", k, "\x00s0"), make([]byte, 120))
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := ns.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, wide, many := allocs(200, 1), allocs(200, 40), allocs(2000, 40)
	if small != wide || small != many || small > 8 {
		t.Errorf("Snapshot allocations: %v for 200 keys of 1 value, %v for 200 of 40, %v for 2000 of 40; want the same few", small, wide, many)
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
	ns.Append("list\x00s0", []byte("element"))
	reads, writes = 0, 0
	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if reads != ns.StoredBytes() || writes != len(img) {
		t.Errorf("snapshot charged reads=%d writes=%d, want the %d stored and the %d image bytes", reads, writes, ns.StoredBytes(), len(img))
	}
	reads, writes = 0, 0
	if err := ns.Restore(img); err != nil {
		t.Fatal(err)
	}
	if reads != 0 || writes != len(img) {
		t.Errorf("restore charged reads=%d writes=%d, want the %d image bytes written", reads, writes, len(img))
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
	// The hostile seeds (a key twice, a key filed under two groups, the JSON
	// image of protocol 6, groups out of range or repeated, a length past the
	// end) are the committed corpus under testdata/fuzz/FuzzNamespaceRestore.
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
				t.Fatalf("rejected image changed the namespace:\n%x\n%x", before, after)
			}
			return
		}
		img1 := snapshot(ns)
		ns2 := store.Namespace("b")
		if err := ns2.Restore(img1); err != nil {
			t.Fatalf("a namespace's own snapshot does not restore: %v\n%x", err, img1)
		}
		if img2 := snapshot(ns2); !bytes.Equal(img1, img2) {
			t.Fatalf("snapshot is not a fixed point of restore:\n%x\n%x", img1, img2)
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
			t.Fatalf("1→2→1 repartition of the accepted image lost or moved state:\n%x\n%x", img1, img3)
		}
	})
}
