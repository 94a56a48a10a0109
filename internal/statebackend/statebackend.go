// Package statebackend provides the embedded key-value state store used by
// stateful operators in the engine, standing in for RocksDB in the paper's
// deployments.
//
// The store keeps data in memory but charges every operation's bytes to an
// accounting callback, which the engine wires to the owning worker's shared
// disk-I/O meter — so co-located stateful tasks genuinely contend for I/O
// bandwidth, the effect the paper measures in §3.3. Read and write
// amplification factors model LSM compaction and read overheads.
package statebackend

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// AccountFunc receives the number of bytes read or written by an operation.
// It may block (e.g. on a token bucket) to enforce bandwidth limits.
type AccountFunc func(readBytes, writeBytes int)

// Options tunes the backend.
type Options struct {
	// WriteAmplification multiplies charged write bytes (LSM compaction
	// rewrites data several times). Values < 1 are treated as 1.
	WriteAmplification float64
	// ReadAmplification multiplies charged read bytes (LSM point reads may
	// touch several levels). Values < 1 are treated as 1.
	ReadAmplification float64
	// NumKeyGroups is the number of key-groups namespace snapshots are
	// partitioned into (see keygroups.go). It is fixed for the life of a job
	// and bounds the maximum operator parallelism a rescale can reach. Zero
	// means DefaultKeyGroups.
	NumKeyGroups int
}

// Store is a namespaced KV store. It is safe for concurrent use by multiple
// namespaces; operations within one namespace are also individually
// thread-safe.
type Store struct {
	mu      sync.RWMutex
	spaces  map[string]*Namespace
	account AccountFunc
	opts    Options
}

// NewStore creates a store charging operations to account (nil = no
// accounting).
func NewStore(account AccountFunc, opts Options) *Store {
	if opts.WriteAmplification < 1 {
		opts.WriteAmplification = 1
	}
	if opts.ReadAmplification < 1 {
		opts.ReadAmplification = 1
	}
	if opts.NumKeyGroups <= 0 {
		opts.NumKeyGroups = DefaultKeyGroups
	}
	if account == nil {
		account = func(int, int) {}
	}
	return &Store{
		spaces:  make(map[string]*Namespace),
		account: account,
		opts:    opts,
	}
}

// Namespace returns (creating if necessary) the named keyspace, typically
// one per task.
func (s *Store) Namespace(name string) *Namespace {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.spaces[name]
	if !ok {
		ns = &Namespace{store: s, name: name, contents: newContents()}
		s.spaces[name] = ns
	}
	return ns
}

// DropNamespace removes a namespace and returns the bytes it held.
func (s *Store) DropNamespace(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.spaces[name]
	if !ok {
		return 0
	}
	delete(s.spaces, name)
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.bytes
}

// TotalBytes reports the bytes held across all namespaces.
func (s *Store) TotalBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, ns := range s.spaces {
		ns.mu.Lock()
		total += ns.bytes
		ns.mu.Unlock()
	}
	return total
}

// Namespace is one task's keyspace.
type Namespace struct {
	store *Store
	name  string
	mu    sync.Mutex
	contents
	account AccountFunc // overrides store.account when non-nil; guarded by mu

	readBytes  int
	writeBytes int
	reads      int
	writes     int
}

// contents is what a namespace holds and what a snapshot image describes.
// Stored bytes are never written again: Put and Append store fresh bytes, a
// run only grows past its end or is dropped whole. That is what lets Snapshot
// encode, and List hand out, slices of them without copying.
type contents struct {
	data  map[string][]byte
	lists map[string]listRun
	bytes int // len(key)+len(value) per KV entry, len(key)+sum(len(value)) per list
}

// listRun is one key's list state: its values back to back, each behind its
// uvarint length — byte for byte the body of the key's list entry in a
// snapshot image, so a snapshot or a restore moves a list with one copy.
type listRun struct {
	run   []byte
	n     int // values in run
	bytes int // sum of their lengths, without the length prefixes
}

func newContents() contents {
	return contents{data: make(map[string][]byte), lists: make(map[string]listRun)}
}

// SetAccount overrides the store-level accounting callback for this
// namespace only. A namespace is one task's keyspace, so a per-namespace
// callback lets the engine charge state I/O to that task's private meter
// shard instead of a callback shared by every co-located task. nil restores
// the store-level callback.
func (ns *Namespace) SetAccount(f AccountFunc) {
	ns.mu.Lock()
	ns.account = f
	ns.mu.Unlock()
}

// noteReadLocked counts one read of n bytes. The caller holds ns.mu, and once
// it has unlocked calls the returned callback with the returned amount: the
// callback may block on a bandwidth meter, so it never runs under the lock.
func (ns *Namespace) noteReadLocked(n int) (AccountFunc, int) {
	amp := int(float64(n) * ns.store.opts.ReadAmplification)
	ns.reads++
	ns.readBytes += amp
	return ns.accountLocked(), amp
}

// noteWriteLocked is noteReadLocked for a write.
func (ns *Namespace) noteWriteLocked(n int) (AccountFunc, int) {
	amp := int(float64(n) * ns.store.opts.WriteAmplification)
	ns.writes++
	ns.writeBytes += amp
	return ns.accountLocked(), amp
}

func (ns *Namespace) accountLocked() AccountFunc {
	if ns.account != nil {
		return ns.account
	}
	return ns.store.account
}

// Put stores value under key.
func (ns *Namespace) Put(key string, value []byte) {
	cp := append([]byte(nil), value...)
	ns.mu.Lock()
	old, existed := ns.data[key]
	ns.data[key] = cp
	if existed {
		ns.bytes += len(cp) - len(old)
	} else {
		ns.bytes += len(key) + len(cp)
	}
	account, n := ns.noteWriteLocked(len(key) + len(value))
	ns.mu.Unlock()
	account(0, n)
}

// Get retrieves the value stored under key.
func (ns *Namespace) Get(key string) ([]byte, bool) {
	ns.mu.Lock()
	v, ok := ns.data[key]
	account, n := ns.noteReadLocked(len(key) + len(v))
	ns.mu.Unlock()
	account(n, 0)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete removes key and reports whether it existed.
func (ns *Namespace) Delete(key string) bool {
	ns.mu.Lock()
	v, ok := ns.data[key]
	if ok {
		delete(ns.data, key)
		ns.bytes -= len(key) + len(v)
	}
	account, n := ns.noteWriteLocked(len(key))
	ns.mu.Unlock()
	account(0, n)
	return ok
}

// Append adds value to the list stored under key (Flink's ListState.add).
func (ns *Namespace) Append(key string, value []byte) {
	ns.mu.Lock()
	l, ok := ns.lists[key]
	if !ok {
		ns.bytes += len(key)
	}
	l.run = append(binary.AppendUvarint(l.run, uint64(len(value))), value...)
	l.n++
	l.bytes += len(value)
	ns.lists[key] = l
	ns.bytes += len(value)
	account, n := ns.noteWriteLocked(len(key) + len(value))
	ns.mu.Unlock()
	account(0, n)
}

// List returns all values appended under key, in insertion order. The values
// are views into the namespace's own bytes: read them, do not write them.
// They stay valid, and unchanged, across any later operation on the
// namespace (see contents).
func (ns *Namespace) List(key string) [][]byte {
	ns.mu.Lock()
	l := ns.lists[key]
	account, n := ns.noteReadLocked(len(key) + l.bytes)
	ns.mu.Unlock()
	account(n, 0)
	out := make([][]byte, l.n)
	run := l.run
	for i := range out {
		size, w := binary.Uvarint(run)
		end := w + int(size)
		out[i] = run[w:end:end]
		run = run[end:]
	}
	return out
}

// ClearList drops the list stored under key and returns how many elements
// it held.
func (ns *Namespace) ClearList(key string) int {
	ns.mu.Lock()
	l, ok := ns.lists[key]
	if ok {
		delete(ns.lists, key)
		ns.bytes -= len(key) + l.bytes
	}
	account, n := ns.noteWriteLocked(len(key))
	ns.mu.Unlock()
	account(0, n)
	return l.n
}

// Scan calls fn for every storage key the namespace holds, in unspecified
// order: with the stored (non-nil) value for a KV key and a nil value for a
// key that holds a list. Operators use it in Open to rebuild their in-memory
// firing index over restored state, so the index never needs an image of its
// own. It is uncharged — the restore that filled the namespace already paid
// for the bytes — and fn runs under the namespace lock: it must not call
// back into the namespace, nor modify or retain value.
func (ns *Namespace) Scan(fn func(key string, value []byte)) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	for k, v := range ns.data {
		if v == nil {
			v = []byte{}
		}
		fn(k, v)
	}
	for k := range ns.lists {
		fn(k, nil)
	}
}

// Stats reports accumulated accounting for the namespace.
type Stats struct {
	Reads      int
	Writes     int
	ReadBytes  int
	WriteBytes int
	StoredByte int
}

// Keys reports how many distinct keys the namespace currently holds across
// its KV and list maps. Exposed for the engine's state.* gauges.
func (ns *Namespace) Keys() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.data) + len(ns.lists)
}

// StoredBytes reports the bytes the namespace currently holds, using the
// same accounting as TotalBytes. Exposed for the engine's state.* gauges.
func (ns *Namespace) StoredBytes() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.bytes
}

// Stats returns a snapshot of the namespace's accounting counters.
func (ns *Namespace) Stats() Stats {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return Stats{
		Reads:      ns.reads,
		Writes:     ns.writes,
		ReadBytes:  ns.readBytes,
		WriteBytes: ns.writeBytes,
		StoredByte: ns.bytes,
	}
}

// String identifies the namespace for debugging.
func (ns *Namespace) String() string { return fmt.Sprintf("ns(%s)", ns.name) }
