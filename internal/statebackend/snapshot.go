package statebackend

import "fmt"

// Namespace keys may contain arbitrary bytes (window keys embed big-endian
// timestamps), and JSON map keys silently mangle invalid UTF-8. The image
// therefore stores keys as []byte entries (base64 in JSON) in sorted key
// order, which keeps the encoding both binary-safe and deterministic: the
// same logical contents always produce the same bytes — the engine's
// deterministic-recovery tests rely on this.
type nsEntry struct {
	K []byte `json:"k"`
	V []byte `json:"v"`
}

type nsListEntry struct {
	K []byte   `json:"k"`
	V [][]byte `json:"v"`
}

// groupImage is one key-group's slice of a namespace image: the entries
// whose (logical) keys hash into key-group G, sorted by storage key.
type groupImage struct {
	G     int           `json:"g"`
	Data  []nsEntry     `json:"data,omitempty"`
	Lists []nsListEntry `json:"lists,omitempty"`
}

// nsImage is a namespace snapshot: the key-group-partitioned layout that
// Repartition splits and merges exactly. decodeImageGroups is its one
// decoder and rejects anything else.
type nsImage struct {
	Groups []groupImage `json:"groups,omitempty"`
}

// Snapshot serializes the namespace's complete contents into a
// self-contained, deterministic byte image. The read of the stored bytes and
// the write of the image are both charged to the store's accounting callback,
// so periodic checkpoints genuinely contend for the worker's I/O bandwidth
// the way RocksDB snapshot uploads do.
func (ns *Namespace) Snapshot() ([]byte, error) {
	numGroups := ns.store.opts.NumKeyGroups
	ns.mu.Lock()
	groups := make(map[int]*decodedGroup)
	get := func(g int) *decodedGroup {
		d := groups[g]
		if d == nil {
			d = &decodedGroup{g: g}
			groups[g] = d
		}
		return d
	}
	for k, v := range ns.data {
		d := get(storageKeyGroup([]byte(k), numGroups))
		d.data = append(d.data, nsEntry{K: []byte(k), V: append([]byte(nil), v...)})
	}
	for k, vals := range ns.lists {
		cp := make([][]byte, len(vals))
		for i, v := range vals {
			cp[i] = append([]byte(nil), v...)
		}
		d := get(storageKeyGroup([]byte(k), numGroups))
		d.lists = append(d.lists, nsListEntry{K: []byte(k), V: cp})
	}
	stored := ns.bytes
	ns.mu.Unlock()
	flat := make([]*decodedGroup, 0, len(groups))
	for _, d := range groups {
		flat = append(flat, d)
	}
	buf, err := encodeGroups(flat)
	if err != nil {
		return nil, fmt.Errorf("statebackend: snapshot %s: %w", ns.name, err)
	}
	ns.chargeRead(stored)
	ns.chargeWrite(len(buf))
	return buf, nil
}

// Restore replaces the namespace's contents with a previously taken
// Snapshot image. A nil or empty image clears the namespace; an image that
// is not in the grouped layout, or names a group outside the store's group
// count, is an error and leaves the namespace unchanged. The restore write
// is charged to the accounting callback.
func (ns *Namespace) Restore(buf []byte) error {
	groups, err := decodeImageGroups(buf, ns.store.opts.NumKeyGroups)
	if err != nil {
		return fmt.Errorf("statebackend: restore %s: %w", ns.name, err)
	}
	data := make(map[string][]byte)
	lists := make(map[string][][]byte)
	bytes := 0
	for _, d := range groups {
		for _, e := range d.data {
			v := append([]byte(nil), e.V...)
			data[string(e.K)] = v
			bytes += len(e.K) + len(v)
		}
		for _, e := range d.lists {
			cp := make([][]byte, len(e.V))
			bytes += len(e.K)
			for i, v := range e.V {
				cp[i] = append([]byte(nil), v...)
				bytes += len(v)
			}
			lists[string(e.K)] = cp
		}
	}
	ns.mu.Lock()
	ns.data = data
	ns.lists = lists
	ns.bytes = bytes
	ns.mu.Unlock()
	ns.chargeWrite(len(buf))
	return nil
}
