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
		ns = &Namespace{
			store: s,
			name:  name,
			data:  make(map[string][]byte),
			lists: make(map[string][][]byte),
		}
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
	store   *Store
	name    string
	mu      sync.Mutex
	data    map[string][]byte
	lists   map[string][][]byte
	bytes   int
	account AccountFunc // overrides store.account when non-nil; guarded by mu

	readBytes  int
	writeBytes int
	reads      int
	writes     int
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

// chargeRead updates counters under ns.mu (caller must NOT hold it) and then
// invokes the accounting callback outside any lock, since it may block on a
// bandwidth meter.
func (ns *Namespace) chargeRead(n int) {
	amp := int(float64(n) * ns.store.opts.ReadAmplification)
	ns.mu.Lock()
	ns.reads++
	ns.readBytes += amp
	account := ns.account
	ns.mu.Unlock()
	if account == nil {
		account = ns.store.account
	}
	account(amp, 0)
}

func (ns *Namespace) chargeWrite(n int) {
	amp := int(float64(n) * ns.store.opts.WriteAmplification)
	ns.mu.Lock()
	ns.writes++
	ns.writeBytes += amp
	account := ns.account
	ns.mu.Unlock()
	if account == nil {
		account = ns.store.account
	}
	account(0, amp)
}

// Put stores value under key.
func (ns *Namespace) Put(key string, value []byte) {
	ns.mu.Lock()
	old, existed := ns.data[key]
	cp := append([]byte(nil), value...)
	ns.data[key] = cp
	if existed {
		ns.bytes += len(cp) - len(old)
	} else {
		ns.bytes += len(key) + len(cp)
	}
	ns.mu.Unlock()
	ns.chargeWrite(len(key) + len(value))
}

// Get retrieves the value stored under key.
func (ns *Namespace) Get(key string) ([]byte, bool) {
	ns.mu.Lock()
	v, ok := ns.data[key]
	var cp []byte
	if ok {
		cp = append([]byte(nil), v...)
	}
	ns.mu.Unlock()
	ns.chargeRead(len(key) + len(cp))
	if !ok {
		return nil, false
	}
	return cp, true
}

// Delete removes key and reports whether it existed.
func (ns *Namespace) Delete(key string) bool {
	ns.mu.Lock()
	v, ok := ns.data[key]
	if ok {
		delete(ns.data, key)
		ns.bytes -= len(key) + len(v)
	}
	ns.mu.Unlock()
	ns.chargeWrite(len(key))
	return ok
}

// Append adds value to the list stored under key (Flink's ListState.add).
func (ns *Namespace) Append(key string, value []byte) {
	cp := append([]byte(nil), value...)
	ns.mu.Lock()
	if _, ok := ns.lists[key]; !ok {
		ns.bytes += len(key)
	}
	ns.lists[key] = append(ns.lists[key], cp)
	ns.bytes += len(cp)
	ns.mu.Unlock()
	ns.chargeWrite(len(key) + len(value))
}

// List returns all values appended under key, in insertion order.
func (ns *Namespace) List(key string) [][]byte {
	ns.mu.Lock()
	vals := ns.lists[key]
	out := make([][]byte, len(vals))
	total := len(key)
	for i, v := range vals {
		out[i] = append([]byte(nil), v...)
		total += len(v)
	}
	ns.mu.Unlock()
	ns.chargeRead(total)
	return out
}

// ClearList drops the list stored under key and returns how many elements
// it held.
func (ns *Namespace) ClearList(key string) int {
	ns.mu.Lock()
	vals, ok := ns.lists[key]
	n := len(vals)
	if ok {
		delete(ns.lists, key)
		ns.bytes -= len(key)
		for _, v := range vals {
			ns.bytes -= len(v)
		}
	}
	ns.mu.Unlock()
	ns.chargeWrite(len(key))
	return n
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
