package statebackend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// A namespace image is the key-group-partitioned binary layout Repartition
// splits and merges exactly. Every integer is a uvarint:
//
//	image  = magic  groups  group*            groups ascending by g
//	group  = g  kvs  kv*  lists  list*        entries ascending by key
//	kv     = klen key  vlen value
//	list   = klen key  n  (vlen value)*n
//
// Keys hold arbitrary bytes (window keys embed big-endian timestamps). The
// order makes the encoding deterministic — the same contents always give the
// same bytes, which the engine's deterministic-recovery tests rely on — and a
// group's bytes after g (its body) do not depend on the image around it.
// decodeImageGroups is the one decoder and rejects anything else.
const imageMagic = "CKG\x01"

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// fieldLen is the encoded size of n bytes behind their length.
func fieldLen(n int) int { return uvarintLen(n) + n }

func imageHeaderLen(groups int) int { return len(imageMagic) + uvarintLen(groups) }

func appendImageHeader(buf []byte, groups int) []byte {
	return binary.AppendUvarint(append(buf, imageMagic...), uint64(groups))
}

// snapEntry is one key of a snapshot in progress. It shares the namespace's
// bytes rather than copying them (see contents).
type snapEntry struct {
	key string
	val []byte // a KV value, or a list's run
	n   int    // values in the run; a KV entry does not use it
}

// Snapshot serializes the namespace's complete contents into a
// self-contained, deterministic byte image. The read of the stored bytes and
// the write of the image are both charged to the store's accounting callback,
// so periodic checkpoints genuinely contend for the worker's I/O bandwidth
// the way RocksDB snapshot uploads do. The error is always nil.
func (ns *Namespace) Snapshot() ([]byte, error) {
	numGroups := ns.store.opts.NumKeyGroups
	// Segment 2g is group g's KV entries and segment 2g+1 its lists, laid out
	// in that order in one array: count, carve, fill — each entry by the
	// key-group it carries, so no key is hashed here.
	count := make([]int, 2*numGroups)
	next := make([]int, 2*numGroups)
	ns.mu.Lock()
	size := 0
	for k, e := range ns.data {
		count[2*e.g]++
		size += fieldLen(len(k)) + fieldLen(len(e.val))
	}
	for k, l := range ns.lists {
		count[2*l.g+1]++
		size += fieldLen(len(k)) + uvarintLen(l.n) + len(l.run)
	}
	groups, total := 0, 0
	for s, c := range count {
		next[s] = total
		total += c
		if s%2 == 1 && count[s-1]+c > 0 {
			groups++
			size += uvarintLen(s/2) + uvarintLen(count[s-1]) + uvarintLen(c)
		}
	}
	size += imageHeaderLen(groups)
	ents := make([]snapEntry, total)
	for k, e := range ns.data {
		s := 2 * e.g
		ents[next[s]] = snapEntry{key: k, val: e.val}
		next[s]++
	}
	for k, l := range ns.lists {
		s := 2*l.g + 1
		ents[next[s]] = snapEntry{key: k, val: l.run, n: l.n}
		next[s]++
	}
	readAccount, read := ns.noteReadLocked(ns.bytes)
	writeAccount, written := ns.noteWriteLocked(size)
	ns.mu.Unlock()
	readAccount(read, 0)
	writeAccount(0, written)

	buf := appendImageHeader(make([]byte, 0, size), groups)
	order := make([]uint64, 0, slices.Max(count))
	for g := 0; g < numGroups; g++ {
		kvs, lists := ents[:count[2*g]], ents[count[2*g]:count[2*g]+count[2*g+1]]
		ents = ents[len(kvs)+len(lists):]
		if len(kvs)+len(lists) == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(g))
		buf = binary.AppendUvarint(buf, uint64(len(kvs)))
		order = keyOrder(kvs, order)
		for _, o := range order {
			buf = appendField(appendField(buf, kvs[o].key), kvs[o].val)
		}
		buf = binary.AppendUvarint(buf, uint64(len(lists)))
		order = keyOrder(lists, order)
		for _, o := range order {
			e := &lists[o]
			buf = append(binary.AppendUvarint(appendField(buf, e.key), uint64(e.n)), e.val...)
		}
	}
	return buf, nil
}

// keyOrder returns the indexes of ents in ascending key order, reusing order.
// Each entry sorts as one integer — the first bytes of its key (big-endian,
// zero-padded) above its index, as many bytes as the index leaves room for —
// so the sort compares integers and reads no key. Entries those bytes do not
// tell apart are then put in key order among themselves.
func keyOrder(ents []snapEntry, order []uint64) []uint64 {
	shift := uint(bits.Len(uint(len(ents))))
	index := uint64(1)<<shift - 1
	order = order[:0]
	for i, e := range ents {
		var p [8]byte
		copy(p[:], e.key)
		order = append(order, binary.BigEndian.Uint64(p[:])&^index|uint64(i))
	}
	slices.Sort(order)
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi]&^index == order[lo]&^index {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], func(a, b uint64) int {
				return strings.Compare(ents[a&index].key, ents[b&index].key)
			})
		}
		for ; lo < hi; lo++ {
			order[lo] &= index
		}
	}
	return order
}

func appendField[B string | []byte](buf []byte, b B) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// Restore replaces the namespace's contents with a previously taken
// Snapshot image. A nil or empty image clears the namespace; an image
// decodeImageGroups refuses is an error and leaves the namespace unchanged.
// The restore write is charged to the accounting callback.
func (ns *Namespace) Restore(buf []byte) error {
	// The one copy of a restore: what the namespace holds afterwards are
	// slices of own, never of the caller's buffer.
	own := append([]byte(nil), buf...)
	c := newContents()
	if _, err := decodeImageGroups(own, ns.store.opts.NumKeyGroups, &c); err != nil {
		return fmt.Errorf("statebackend: restore %s: %w", ns.name, err)
	}
	ns.mu.Lock()
	ns.contents = c
	account, n := ns.noteWriteLocked(len(buf))
	ns.mu.Unlock()
	account(0, n)
	return nil
}

// decodedGroup is one key-group of a decoded image.
type decodedGroup struct {
	g    int
	body []byte // the group's encoding after g, a slice of the image
	held int64  // stored bytes, by the Namespace bookkeeping (see contents.bytes)
}

// ErrBadImage is wrapped by every refusal of a namespace image that does not
// decode: truncated or corrupt, the JSON layout, no magic, a group out of
// range, twice or out of order, a key out of place, or trailing bytes.
var ErrBadImage = errors.New("statebackend: bad key-group image")

// imageReader walks an image. Every count it reads is of things at least one
// byte long and every length is of bytes that follow, so either is checked
// against the bytes that remain before anything is sized by it.
type imageReader struct {
	buf []byte
	off int
}

func (r *imageReader) uvarint(what string) (uint64, error) {
	v, w := binary.Uvarint(r.buf[r.off:])
	if w <= 0 {
		return 0, fmt.Errorf("%w: truncated or corrupt at byte %d, reading %s", ErrBadImage, r.off, what)
	}
	r.off += w
	return v, nil
}

func (r *imageReader) count(what string) (int, error) {
	v, err := r.uvarint(what)
	if err == nil && v > uint64(len(r.buf)-r.off) {
		err = fmt.Errorf("%w: truncated or corrupt at byte %d: %s %d with %d bytes left", ErrBadImage, r.off, what, v, len(r.buf)-r.off)
	}
	return int(v), err
}

// field reads n bytes behind their length. The slice's capacity stops at its
// end, so appending to it cannot reach the bytes after it.
func (r *imageReader) field(what string) ([]byte, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	r.off += n
	return r.buf[r.off-n : r.off : r.off], nil
}

// key reads an entry's key and checks it sits where Snapshot puts it: in the
// group it hashes to (a rescale would hand a misfiled key to the wrong task)
// and strictly after the entry before it (a repeated key would restore over
// its twin).
func (r *imageReader) key(kind string, g, numGroups int, prev []byte) ([]byte, error) {
	k, err := r.field(kind)
	if err != nil {
		return nil, err
	}
	if int(keyHash(k)%uint32(numGroups)) != g || prev != nil && string(prev) >= string(k) {
		return nil, fmt.Errorf("%w: %s %q out of place in group %d", ErrBadImage, kind, k, g)
	}
	return k, nil
}

// decodeImageGroups decodes one namespace image into its key-groups — the
// only decoder, for Restore and Repartition alike. Images come from outside
// the process (a coordinator's snapshot store, another worker), so the
// decode is strict: anything but the layout above, whole and with nothing
// after it — the JSON image of control-plane protocol 6 and earlier among
// them — a group outside [0,numGroups), a group listed twice or a key out of
// place is an error, never a silently empty, partial or misrouted restore.
// With into non-nil the entries are also added to it, as slices of buf.
func decodeImageGroups(buf []byte, numGroups int, into *contents) ([]decodedGroup, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	if buf[0] == '{' {
		return nil, fmt.Errorf("%w: the JSON layout of control-plane protocol 6 and earlier, not a binary key-group image", ErrBadImage)
	}
	if len(buf) < len(imageMagic) || string(buf[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("%w: no key-group image magic", ErrBadImage)
	}
	r := &imageReader{buf: buf, off: len(imageMagic)}
	n, err := r.count("group count")
	if err != nil {
		return nil, err
	}
	groups := make([]decodedGroup, 0, min(n, numGroups))
	for i := 0; i < n; i++ {
		gv, err := r.uvarint("group")
		if err != nil {
			return nil, err
		}
		if gv >= uint64(numGroups) {
			return nil, fmt.Errorf("%w: group %d outside [0,%d)", ErrBadImage, gv, numGroups)
		}
		d, bodyStart := decodedGroup{g: int(gv)}, r.off
		if i > 0 && d.g == groups[i-1].g {
			return nil, fmt.Errorf("%w: group %d twice", ErrBadImage, d.g)
		}
		if i > 0 && d.g < groups[i-1].g {
			return nil, fmt.Errorf("%w: group %d after group %d", ErrBadImage, d.g, groups[i-1].g)
		}
		kvs, err := r.count("entry count")
		if err != nil {
			return nil, err
		}
		var prev []byte
		for j := 0; j < kvs; j++ {
			k, err := r.key("key", d.g, numGroups, prev)
			if err != nil {
				return nil, err
			}
			v, err := r.field("value length")
			if err != nil {
				return nil, err
			}
			d.held += int64(len(k) + len(v))
			if into != nil {
				into.data[string(k)] = kvEntry{val: v, g: d.g}
			}
			prev = k
		}
		lists, err := r.count("list count")
		if err != nil {
			return nil, err
		}
		prev = nil
		for j := 0; j < lists; j++ {
			k, err := r.key("list key", d.g, numGroups, prev)
			if err != nil {
				return nil, err
			}
			l := listRun{g: d.g}
			if l.n, err = r.count("list size"); err != nil {
				return nil, err
			}
			start := r.off
			for x := 0; x < l.n; x++ {
				v, err := r.field("list value length")
				if err != nil {
					return nil, err
				}
				l.bytes += len(v)
			}
			l.run = buf[start:r.off:r.off]
			d.held += int64(len(k) + l.bytes)
			if into != nil {
				into.lists[string(k)] = l
			}
			prev = k
		}
		d.body = buf[bodyStart:r.off]
		if into != nil {
			into.bytes += int(d.held)
		}
		groups = append(groups, d)
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("%w: %d bytes after its last group", ErrBadImage, len(buf)-r.off)
	}
	return groups, nil
}
