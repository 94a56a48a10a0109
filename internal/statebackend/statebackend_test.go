package statebackend

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore(nil, Options{})
	ns := s.Namespace("t1")
	if _, ok := ns.Get("missing"); ok {
		t.Error("Get on missing key returned ok")
	}
	ns.Put("k", []byte("hello"))
	v, ok := ns.Get("k")
	if !ok || string(v) != "hello" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	ns.Put("k", []byte("world!"))
	v, _ = ns.Get("k")
	if string(v) != "world!" {
		t.Errorf("overwrite lost: %q", v)
	}
	if !ns.Delete("k") {
		t.Error("Delete existing returned false")
	}
	if ns.Delete("k") {
		t.Error("Delete missing returned true")
	}
	if _, ok := ns.Get("k"); ok {
		t.Error("key survived delete")
	}
}

// TestGetViewsStayValid: Get hands out a view of the namespace's own bytes,
// and nothing the namespace does later to the same key changes what it shows
// — not a Put over it, not a Delete, not a Restore — nor does a Snapshot
// encoding the same bytes from another goroutine race with it. A view of a
// restored value shares its backing array with its neighbours in the image,
// so an append to it must copy rather than write past its end.
func TestGetViewsStayValid(t *testing.T) {
	ns := NewStore(nil, Options{}).Namespace("t")
	want := []byte("accumulator")
	ns.Put("k", want)
	ns.Put("l", []byte("neighbour"))
	img, err := ns.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	view, ok := ns.Get("k")
	check := func(when string) {
		t.Helper()
		if !ok || !bytes.Equal(view, want) {
			t.Fatalf("%s: view is %q (ok=%v), want %q", when, view, ok, want)
		}
	}
	check("at first")
	if cap(view) != len(view) {
		t.Errorf("view of a Put value: %d bytes with capacity %d", len(view), cap(view))
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
		ns.Put("k", bytes.Repeat([]byte{byte(i)}, len(want)))
		if v, _ := ns.Get("k"); v[0] != byte(i) {
			t.Fatalf("Put %d: Get shows %q", i, v)
		}
	}
	<-done
	check("after Puts over the key")
	ns.Delete("k")
	check("after Delete")
	if err := ns.Restore(img); err != nil {
		t.Fatal(err)
	}
	check("after Restore")

	view, ok = ns.Get("k")
	check("restored")
	// Both restored values are slices of one buffer, so at least one of them
	// has the other's bytes behind its end.
	for _, k := range []string{"k", "l"} {
		v, _ := ns.Get(k)
		if cap(v) != len(v) {
			t.Errorf("view of restored %q: %d bytes with capacity %d", k, len(v), cap(v))
		}
		_ = append(v, "!!!!!!!!!!"...)
	}
	check("after appends to the views")
	if l, _ := ns.Get("l"); string(l) != "neighbour" {
		t.Errorf("appending to views changed a stored value to %q", l)
	}
	if got, _ := ns.Snapshot(); !bytes.Equal(got, img) {
		t.Error("appending to a view wrote into the namespace")
	}
}

func TestListState(t *testing.T) {
	s := NewStore(nil, Options{})
	ns := s.Namespace("t")
	for i, v := range []string{"a", "b", "c"} {
		if fresh := ns.Append("w", []byte(v)); fresh != (i == 0) {
			t.Errorf("Append %d reported a new list: %v", i, fresh)
		}
	}
	vals := ns.List("w")
	if len(vals) != 3 || string(vals[0]) != "a" || string(vals[2]) != "c" {
		t.Errorf("List = %v", vals)
	}
	ns.Put("empty", nil)
	ns.Put("kv", []byte("v"))
	before := ns.Stats()
	scanned := map[string]string{}
	ns.Scan(func(k string, v []byte) {
		if v == nil {
			scanned[k] = "list"
		} else {
			scanned[k] = "kv:" + string(v)
		}
	})
	if want := map[string]string{"w": "list", "empty": "kv:", "kv": "kv:v"}; !reflect.DeepEqual(scanned, want) {
		t.Errorf("Scan = %v, want %v", scanned, want)
	}
	if ns.Stats() != before {
		t.Errorf("Scan was charged: %+v -> %+v", before, ns.Stats())
	}
	if n := ns.ClearList("w"); n != 3 {
		t.Errorf("ClearList = %d", n)
	}
	if len(ns.List("w")) != 0 {
		t.Error("list survived clear")
	}
	if n := ns.ClearList("nope"); n != 0 {
		t.Errorf("ClearList(missing) = %d", n)
	}
	if !ns.Append("w", []byte("d")) {
		t.Error("Append after ClearList did not report a new list")
	}
}

func TestAccounting(t *testing.T) {
	var reads, writes int
	s := NewStore(func(r, w int) { reads += r; writes += w }, Options{})
	ns := s.Namespace("t")
	ns.Put("key", []byte("value")) // write 3+5 = 8
	if writes != 8 {
		t.Errorf("writes = %d, want 8", writes)
	}
	ns.Get("key") // read 3+5 = 8
	if reads != 8 {
		t.Errorf("reads = %d, want 8", reads)
	}
	st := ns.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.ReadBytes != 8 || st.WriteBytes != 8 {
		t.Errorf("stats = %+v", st)
	}
	// Every operation is charged key + value bytes, never a length prefix,
	// once to the callback and once to the counters.
	for _, op := range []struct {
		name          string
		do            func()
		reads, writes int
	}{
		{"Get of a missing key", func() { ns.Get("nope") }, 4, 0},
		{"Delete", func() { ns.Delete("key") }, 0, 3},
		{"Append", func() { ns.Append("list", make([]byte, 200)) }, 0, 204},
		{"second Append", func() { ns.Append("list", []byte("xy")) }, 0, 6},
		{"List", func() { ns.List("list") }, 206, 0},
		{"List of a missing key", func() { ns.List("none") }, 4, 0},
		{"ClearList", func() { ns.ClearList("list") }, 0, 4},
	} {
		reads, writes = 0, 0
		before := ns.Stats()
		op.do()
		after := ns.Stats()
		if reads != op.reads || writes != op.writes {
			t.Errorf("%s charged reads=%d writes=%d, want %d and %d", op.name, reads, writes, op.reads, op.writes)
		}
		if after.ReadBytes-before.ReadBytes != op.reads || after.WriteBytes-before.WriteBytes != op.writes ||
			after.Reads+after.Writes != before.Reads+before.Writes+1 {
			t.Errorf("%s moved the counters from %+v to %+v", op.name, before, after)
		}
	}
}

func TestStoredBytesTracking(t *testing.T) {
	s := NewStore(nil, Options{})
	ns := s.Namespace("t")
	ns.Put("k1", []byte("aaaa")) // 2+4 = 6
	ns.Put("k2", []byte("bb"))   // 2+2 = 4
	if got := s.TotalBytes(); got != 10 {
		t.Errorf("TotalBytes = %d, want 10", got)
	}
	ns.Put("k1", []byte("a")) // shrink by 3
	if got := s.TotalBytes(); got != 7 {
		t.Errorf("TotalBytes after overwrite = %d, want 7", got)
	}
	ns.Delete("k2")
	if got := s.TotalBytes(); got != 3 {
		t.Errorf("TotalBytes after delete = %d, want 3", got)
	}
	ns.Append("lst", []byte("xyz")) // 3+3
	if got := s.TotalBytes(); got != 9 {
		t.Errorf("TotalBytes with list = %d, want 9", got)
	}
	if freed := s.DropNamespace("t"); freed != 9 {
		t.Errorf("DropNamespace freed %d, want 9", freed)
	}
	if s.TotalBytes() != 0 {
		t.Error("bytes remain after drop")
	}
	if s.DropNamespace("missing") != 0 {
		t.Error("dropping missing namespace freed bytes")
	}
}

func TestNamespaceIsolation(t *testing.T) {
	s := NewStore(nil, Options{})
	a, b := s.Namespace("a"), s.Namespace("b")
	a.Put("k", []byte("va"))
	if _, ok := b.Get("k"); ok {
		t.Error("namespaces share keys")
	}
	if s.Namespace("a") != a {
		t.Error("Namespace not idempotent")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(nil, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ns := s.Namespace(fmt.Sprintf("task-%d", id%4)) // share some namespaces
			for j := 0; j < 200; j++ {
				key := fmt.Sprintf("k%d", j%10)
				ns.Put(key, []byte("v"))
				ns.Get(key)
				ns.Append("list", []byte("x"))
				if j%50 == 0 {
					ns.ClearList("list")
				}
			}
		}(i)
	}
	wg.Wait()
	if s.TotalBytes() < 0 {
		t.Error("negative stored bytes after concurrent use")
	}
}

// Property: read-your-writes and byte accounting consistency under random
// operation sequences.
func TestStorePropertyReadYourWrites(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(nil, Options{})
		ns := s.Namespace("p")
		shadow := map[string]string{}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(20))
			switch rng.Intn(3) {
			case 0:
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				ns.Put(key, []byte(val))
				shadow[key] = val
			case 1:
				got, ok := ns.Get(key)
				want, wok := shadow[key]
				if ok != wok || (ok && string(got) != want) {
					return false
				}
			case 2:
				ok := ns.Delete(key)
				_, wok := shadow[key]
				if ok != wok {
					return false
				}
				delete(shadow, key)
			}
		}
		// Stored bytes match the shadow contents exactly.
		want := 0
		for k, v := range shadow {
			want += len(k) + len(v)
		}
		return ns.Stats().StoredByte == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
