package statebackend

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// TestKeyGroupOfMatchesFNV pins the inlined hash against the standard
// library: the engine's router and the statebackend partitioner must agree
// on every key.
func TestKeyGroupOfMatchesFNV(t *testing.T) {
	for _, key := range []string{"", "a", "key-7", "auction|1234", "\x00\xff\x10binary"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		want := int(h.Sum32() % uint32(DefaultKeyGroups))
		if got := KeyGroupOf(key, DefaultKeyGroups); got != want {
			t.Errorf("KeyGroupOf(%q) = %d, fnv says %d", key, got, want)
		}
	}
}

// TestAssignGroupsPartition checks the core invariant for a sweep of
// (parallelism, numGroups) pairs: ranges partition [0, G) in order, and
// TaskForGroup agrees with RangeFor on every group.
func TestAssignGroupsPartition(t *testing.T) {
	for _, G := range []int{1, 2, 7, 64, 128, 500} {
		for p := 1; p <= G && p <= 130; p++ {
			ranges, err := AssignGroups(p, G)
			if err != nil {
				t.Fatalf("AssignGroups(%d,%d): %v", p, G, err)
			}
			next := 0
			for i, r := range ranges {
				if r.Start != next {
					t.Fatalf("p=%d G=%d task %d starts at %d, want %d", p, G, i, r.Start, next)
				}
				if r.Len() < 1 {
					t.Fatalf("p=%d G=%d task %d owns empty range %v", p, G, i, r)
				}
				for g := r.Start; g < r.End; g++ {
					if TaskForGroup(g, p, G) != i {
						t.Fatalf("p=%d G=%d group %d: TaskForGroup=%d but in range of task %d",
							p, G, g, TaskForGroup(g, p, G), i)
					}
				}
				next = r.End
			}
			if next != G {
				t.Fatalf("p=%d G=%d ranges cover [0,%d), want [0,%d)", p, G, next, G)
			}
		}
	}
}

func TestAssignGroupsRejectsOverParallelism(t *testing.T) {
	if _, err := AssignGroups(5, 4); err == nil {
		t.Fatal("AssignGroups(5, 4) should fail: tasks would own no groups")
	}
	if _, _, err := Repartition(make([][]byte, 3), 3, 200, 128); err == nil {
		t.Fatal("Repartition to parallelism > numGroups should fail")
	}
}

// winKey mirrors the engine's storage-key convention for windowed state:
// record key, NUL, big-endian window start.
func testWinKey(key string, start int64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(start))
	return key + "\x00" + string(b[:])
}

func populated(t *testing.T, p, G int, keys int) ([][]byte, *Store) {
	t.Helper()
	store := NewStore(nil, Options{NumKeyGroups: G})
	images := make([][]byte, p)
	nss := make([]*Namespace, p)
	for i := range nss {
		nss[i] = store.Namespace(fmt.Sprintf("task%d", i))
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		owner := TaskForGroup(KeyGroupOf(key, G), p, G)
		nss[owner].Put(testWinKey(key, int64(k*100)), []byte(fmt.Sprintf("v%d", k)))
		nss[owner].Append(key, []byte{byte(k), 0xff, 0x00})
	}
	for i, ns := range nss {
		img, err := ns.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		images[i] = img
	}
	return images, store
}

// TestRepartitionRoundTrip: split p→q then merge q→p reproduces the
// original images byte-for-byte, and identity repartition moves nothing.
func TestRepartitionRoundTrip(t *testing.T) {
	const G = 64
	for _, tc := range []struct{ p, q int }{{1, 4}, {2, 3}, {3, 2}, {4, 1}, {2, 2}, {5, 7}} {
		images, store := populated(t, tc.p, G, 40)
		split, movedOut, err := store.Repartition(images, tc.p, tc.q)
		if err != nil {
			t.Fatalf("p=%d q=%d split: %v", tc.p, tc.q, err)
		}
		if tc.p == tc.q && movedOut != 0 {
			t.Errorf("identity repartition p=%d moved %d bytes, want 0", tc.p, movedOut)
		}
		merged, movedBack, err := store.Repartition(split, tc.q, tc.p)
		if err != nil {
			t.Fatalf("p=%d q=%d merge: %v", tc.p, tc.q, err)
		}
		if movedOut != movedBack {
			t.Errorf("p=%d q=%d asymmetric moved bytes: out %d back %d", tc.p, tc.q, movedOut, movedBack)
		}
		for i := range images {
			if !bytes.Equal(images[i], merged[i]) {
				t.Errorf("p=%d q=%d image %d not restored byte-identically\n got %s\nwant %s",
					tc.p, tc.q, i, merged[i], images[i])
			}
		}
	}
}

// TestRepartitionOwnership: after a repartition every entry lives in the
// image of the task that owns its key-group, and restoring the new images
// preserves the total stored bytes.
func TestRepartitionOwnership(t *testing.T) {
	const G, p, q = 128, 2, 5
	images, store := populated(t, p, G, 60)
	split, moved, err := store.Repartition(images, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if moved <= 0 {
		t.Error("scale 2→5 should move some state")
	}
	total := 0
	restoreStore := NewStore(nil, Options{NumKeyGroups: G})
	for i, img := range split {
		groups, err := decodeImageGroups(img, G)
		if err != nil {
			t.Fatal(err)
		}
		r := RangeFor(i, q, G)
		for g := range groups {
			if !r.Contains(g) {
				t.Errorf("new task %d (range %v) holds group %d", i, r, g)
			}
		}
		ns := restoreStore.Namespace(fmt.Sprintf("t%d", i))
		if err := ns.Restore(img); err != nil {
			t.Fatal(err)
		}
		total += ns.StoredBytes()
	}
	if want := store.TotalBytes(); total != want {
		t.Errorf("restored total %d bytes, original holds %d", total, want)
	}
}

// TestRestoreRejectsForeignImage: Restore goes through the one image
// decoder, so the flat pre-key-group layout (nothing has produced it since
// the grouped layout landed), an unknown field, an out-of-range group and a
// repeated group are errors — never a namespace silently restored empty or
// partial — and a rejected restore leaves the contents alone.
func TestRestoreRejectsForeignImage(t *testing.T) {
	ns := NewStore(nil, Options{NumKeyGroups: 8}).Namespace("t")
	ns.Put("keep", []byte("v"))
	for name, img := range map[string]string{
		"flat layout":         `{"data":[{"k":"a2V5LTE=","v":"djE="}],"lists":[{"k":"bGs=","v":["eA=="]}]}`,
		"unknown field":       `{"groups":[],"version":3}`,
		"unknown group field": `{"groups":[{"g":1,"extra":true}]}`,
		"group out of range":  `{"groups":[{"g":8}]}`,
		"group twice":         `{"groups":[{"g":1},{"g":1}]}`,
		"not json":            `groups`,
		// "a" hashes to group 4 of 8.
		"key twice":       `{"groups":[{"g":4,"data":[{"k":"YQ==","v":"MQ=="},{"k":"YQ==","v":"Mg=="}]}]}`,
		"list key twice":  `{"groups":[{"g":4,"lists":[{"k":"YQ==","v":["MQ=="]},{"k":"YQ==","v":["Mg=="]}]}]}`,
		"key misfiled":    `{"groups":[{"g":5,"data":[{"k":"YQ==","v":"MQ=="}]}]}`,
		"keys descending": `{"groups":[{"g":4,"data":[{"k":"YQBi","v":""},{"k":"YQBh","v":""}]}]}`,
	} {
		if err := ns.Restore([]byte(img)); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if v, ok := ns.Get("keep"); !ok || string(v) != "v" {
			t.Fatalf("%s: rejected restore changed the namespace", name)
		}
	}
	if err := ns.Restore(nil); err != nil || ns.Keys() != 0 {
		t.Errorf("empty image: err=%v keys=%d, want a cleared namespace", err, ns.Keys())
	}
}

// TestNamespaceGauges covers the Keys/StoredBytes accessors the engine's
// state.* gauges read.
func TestNamespaceGauges(t *testing.T) {
	ns := NewStore(nil, Options{}).Namespace("t")
	ns.Put("a", []byte("12"))
	ns.Put("b", []byte("3456"))
	ns.Append("l", []byte("78"))
	if got := ns.Keys(); got != 3 {
		t.Errorf("Keys() = %d, want 3", got)
	}
	// a:1+2, b:1+4, l:1+2
	if got := ns.StoredBytes(); got != 11 {
		t.Errorf("StoredBytes() = %d, want 11", got)
	}
}

// FuzzKeyGroupPartition feeds arbitrary key/value material and a
// parallelism transition into the split/merge path and checks the lossless
// invariants: no group orphaned or duplicated, every group owned by exactly
// the task whose range contains it, and split→merge reproducing the
// original images byte-for-byte.
func FuzzKeyGroupPartition(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(64), []byte("key-1\x00key-2\x00a|b"))
	f.Add(uint8(1), uint8(8), uint8(128), []byte("auction"))
	f.Add(uint8(4), uint8(4), uint8(16), []byte("\xff\x00\x10"))
	f.Add(uint8(7), uint8(2), uint8(9), []byte("x\x00y\x00z\x00w"))
	f.Fuzz(func(t *testing.T, rawP, rawQ, rawG uint8, material []byte) {
		G := int(rawG)%256 + 1
		p := int(rawP)%G + 1
		q := int(rawQ)%G + 1

		// Build p images by routing derived keys to their owning task.
		store := NewStore(nil, Options{NumKeyGroups: G})
		nss := make([]*Namespace, p)
		for i := range nss {
			nss[i] = store.Namespace(fmt.Sprintf("t%d", i))
		}
		for i, part := range bytes.Split(material, []byte{0}) {
			key := string(part)
			owner := TaskForGroup(KeyGroupOf(key, G), p, G)
			nss[owner].Put(testWinKey(key, int64(i)), part)
			if i%2 == 0 {
				nss[owner].Append(key, part)
			}
		}
		images := make([][]byte, p)
		for i, ns := range nss {
			img, err := ns.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			images[i] = img
		}

		split, _, err := Repartition(images, p, q, G)
		if err != nil {
			t.Fatalf("split %d→%d G=%d: %v", p, q, G, err)
		}
		if len(split) != q {
			t.Fatalf("split yielded %d images, want %d", len(split), q)
		}
		seen := map[int]bool{}
		for i, img := range split {
			groups, err := decodeImageGroups(img, G)
			if err != nil {
				t.Fatal(err)
			}
			r := RangeFor(i, q, G)
			for g := range groups {
				if seen[g] {
					t.Fatalf("group %d appears in two new images", g)
				}
				seen[g] = true
				if !r.Contains(g) {
					t.Fatalf("new task %d (range %v) holds group %d", i, r, g)
				}
			}
		}
		// No group orphaned: every group present before is present after.
		for _, img := range images {
			groups, err := decodeImageGroups(img, G)
			if err != nil {
				t.Fatal(err)
			}
			for g := range groups {
				if !seen[g] {
					t.Fatalf("group %d orphaned by split", g)
				}
			}
		}

		merged, _, err := Repartition(split, q, p, G)
		if err != nil {
			t.Fatalf("merge %d→%d G=%d: %v", q, p, G, err)
		}
		for i := range images {
			if !bytes.Equal(images[i], merged[i]) {
				t.Fatalf("image %d not restored byte-identically after %d→%d→%d", i, p, q, p)
			}
		}
	})
}
