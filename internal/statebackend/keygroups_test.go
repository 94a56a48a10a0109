package statebackend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
)

// TestKeyGroupOfMatchesFNV pins the inlined hash against the standard
// library over the logical key — the key up to its first NUL — for record
// keys and for the storage keys operators derive from them.
func TestKeyGroupOfMatchesFNV(t *testing.T) {
	for key, logical := range map[string]string{
		"": "", "a": "a", "key-7": "key-7", "auction|1234": "auction|1234", "\xff\x10binary": "\xff\x10binary",
		"\x00\xff\x10binary": "", "k\x007": "k", testWinKey("k\x007", 300): "k", "k\x007\x00s1": "k",
	} {
		h := fnv.New32a()
		h.Write([]byte(logical))
		if got := KeyHash(key); got != h.Sum32() {
			t.Errorf("KeyHash(%q) = %d, fnv of %q is %d", key, got, logical, h.Sum32())
		}
		want := int(h.Sum32() % uint32(DefaultKeyGroups))
		if got := KeyGroupOf(key, DefaultKeyGroups); got != want {
			t.Errorf("KeyGroupOf(%q) = %d, fnv of %q says %d", key, got, logical, want)
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
		groups, err := decodeImageGroups(img, G, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := RangeFor(i, q, G)
		for _, d := range groups {
			if !r.Contains(d.g) {
				t.Errorf("new task %d (range %v) holds group %d", i, r, d.g)
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

// imageOf assembles an image by hand: an int is a uvarint, a string a field
// (its length, then its bytes), a []byte goes in as it is.
func imageOf(parts ...any) []byte {
	buf := []byte(imageMagic)
	for _, p := range parts {
		switch p := p.(type) {
		case int:
			buf = binary.AppendUvarint(buf, uint64(p))
		case string:
			buf = appendField(buf, p)
		case []byte:
			buf = append(buf, p...)
		}
	}
	return buf
}

// TestRestoreRejectsForeignImage: Restore goes through the one image
// decoder, so anything that is not a whole image in the binary layout — the
// JSON image of protocol 6 among them — a group out of range or repeated, a
// key repeated, misfiled or out of order and a count or length the bytes
// cannot back are ErrBadImage errors that say what is wrong, never a
// namespace silently restored empty or partial; a rejected restore leaves the
// contents alone and allocates nothing sized by what the image claims.
func TestRestoreRejectsForeignImage(t *testing.T) {
	const G = 8 // "a", and any "a\x00…", hashes to group 4 of 8
	ns := NewStore(nil, Options{NumKeyGroups: G}).Namespace("t")
	ns.Put("keep", []byte("v"))
	valid := imageOf(1, 4, 1, "a", "1", 1, "a\x00s0", 2, "x", "yz")
	if err := NewStore(nil, Options{NumKeyGroups: G}).Namespace("v").Restore(valid); err != nil {
		t.Fatalf("the image the rows below are cut from does not restore: %v", err)
	}
	const huge = 1 << 40
	rows := []struct {
		name, why string
		img       []byte
	}{
		{"group out of range", "group 8 outside [0,8)", imageOf(1, 8, 0, 0)},
		{"group twice", "group 1 twice", imageOf(2, 1, 0, 0, 1, 0, 0)},
		{"groups descending", "group 1 after group 2", imageOf(2, 2, 0, 0, 1, 0, 0)},
		{"key twice", `key "a" out of place`, imageOf(1, 4, 2, "a", "1", "a", "2", 0)},
		{"list key twice", `list key "a" out of place`, imageOf(1, 4, 0, 2, "a", 1, "1", "a", 1, "2")},
		{"key misfiled", `key "a" out of place in group 5`, imageOf(1, 5, 1, "a", "1", 0)},
		{"keys descending", `key "a\x00a" out of place`, imageOf(1, 4, 2, "a\x00b", "", "a\x00a", "", 0)},
		{"the old JSON image", "JSON layout", []byte(`{"groups":[{"g":4,"data":[{"k":"YQ==","v":"MQ=="}]}]}`)},
		{"the old empty JSON image", "JSON layout", []byte(`{}`)},
		{"bad magic", "magic", append([]byte("CKG\x02"), valid[len(imageMagic):]...)},
		{"shorter than the magic", "magic", []byte("CK")},
		{"one trailing byte", "1 bytes after its last group", append(append([]byte(nil), valid...), 0)},
		{"group count beyond the image", "group count", imageOf(huge)},
		{"entry count beyond the image", "entry count", imageOf(1, 4, huge)},
		{"key length beyond the image", "key 1099511627776 with", imageOf(1, 4, 1, huge)},
		{"value length beyond the image", "value length", imageOf(1, 4, 1, "a", huge)},
		{"list count beyond the image", "list count", imageOf(1, 4, 0, huge)},
		{"list size beyond the image", "list size", imageOf(1, 4, 0, 1, "a", huge)},
		{"list value length beyond the image", "list value length", imageOf(1, 4, 0, 1, "a", 1, huge)},
		{"unterminated uvarint", "truncated or corrupt", imageOf([]byte{0x80})},
		{"overlong uvarint", "truncated or corrupt", imageOf(bytes.Repeat([]byte{0x80}, 11))},
		// The run holds two values: with n one more the reader runs off the end,
		// with n one less the second value is left over.
		{"list longer than its run", "truncated or corrupt", imageOf(1, 4, 0, 1, "a", 3, "x", "yz")},
		{"list shorter than its run", "after its last group", imageOf(1, 4, 0, 1, "a", 1, "x", "yz")},
	}
	for i := 1; i < len(valid); i++ {
		rows = append(rows, struct {
			name, why string
			img       []byte
		}{fmt.Sprintf("truncated to %d of %d bytes", i, len(valid)), "", valid[:i]})
	}
	for _, tc := range rows {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := ns.Restore(tc.img)
		_, _, rerr := Repartition([][]byte{tc.img}, 1, 2, G)
		runtime.ReadMemStats(&ms1)
		if !errors.Is(err, ErrBadImage) || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: Restore error %v, want an ErrBadImage naming %q", tc.name, err, tc.why)
		}
		if !errors.Is(rerr, ErrBadImage) || !strings.Contains(rerr.Error(), tc.why) {
			t.Errorf("%s: Repartition error %v, want an ErrBadImage naming %q", tc.name, rerr, tc.why)
		}
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 16<<10 {
			t.Errorf("%s: refusing a %d-byte image allocated %d bytes", tc.name, len(tc.img), got)
		}
		if v, ok := ns.Get("keep"); !ok || string(v) != "v" || ns.Keys() != 1 {
			t.Fatalf("%s: rejected restore changed the namespace", tc.name)
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
			groups, err := decodeImageGroups(img, G, nil)
			if err != nil {
				t.Fatal(err)
			}
			r := RangeFor(i, q, G)
			for _, d := range groups {
				if seen[d.g] {
					t.Fatalf("group %d appears in two new images", d.g)
				}
				seen[d.g] = true
				if !r.Contains(d.g) {
					t.Fatalf("new task %d (range %v) holds group %d", i, r, d.g)
				}
			}
		}
		// No group orphaned: every group present before is present after.
		for _, img := range images {
			groups, err := decodeImageGroups(img, G, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range groups {
				if !seen[d.g] {
					t.Fatalf("group %d orphaned by split", d.g)
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
