// Package engine is a capslint fixture exercising the locks analyzer:
// Lock/Unlock pairing on every return path and `guarded by <mu>` field
// annotations.
package engine

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Add is the canonical defer pattern and must not be flagged.
func (c *counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Leak never releases the mutex.
func (c *counter) Leak() {
	c.mu.Lock()
	c.n++
}

type conn struct {
	mu  sync.Mutex
	out []byte // guarded by mu
	err error  // guarded by mu
}

// Enqueue is the network transport's peerConn.enqueue (netexchange.go) with
// its deferred Unlock made explicit: the return on a failed connection
// escapes with the lock held, and the connection's next sender blocks
// forever. No engine or controller test reaches that return, so they all
// pass with it; locks is what catches it.
func (c *conn) Enqueue(add func([]byte) []byte) error {
	c.mu.Lock()
	if c.err != nil {
		return c.err
	}
	c.out = add(c.out)
	c.mu.Unlock()
	return nil
}

// Straight locks and unlocks in the same block with no return in between
// and must not be flagged.
func (c *counter) Straight() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// Unguarded reads a guarded field without taking the mutex.
func (c *counter) Unguarded() int {
	return c.n
}

// nLocked follows the caller-holds-the-lock naming convention and must not
// be flagged.
func (c *counter) nLocked() int {
	return c.n
}
