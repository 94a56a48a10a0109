// Package cluster models the slot-oriented resource cluster presented to a
// stream processor's scheduler: a set of homogeneous workers (VMs, containers
// or bare-metal nodes), each exposing a fixed number of compute slots while
// sharing the worker's memory, disk-I/O and network bandwidth among all
// co-located tasks.
package cluster

import (
	"errors"
	"fmt"
	"strings"
)

// Worker describes one node of the cluster.
type Worker struct {
	// ID is a stable human-readable identifier (e.g. "tm-3"), unique in
	// its cluster and free of '.': it is the label part of the worker's
	// "worker.<id>.<metric>" series.
	ID string
	// Slots is the number of compute slots; each slot hosts at most one task.
	Slots int
	// CPU is the compute capacity in CPU-seconds per second (i.e. number of
	// cores, assuming per-record CPU unit costs are measured in core-seconds).
	CPU float64
	// IOBandwidth is the disk bandwidth in bytes/second available to the
	// state backend (reads + writes combined).
	IOBandwidth float64
	// NetBandwidth is the outbound network bandwidth in bytes/second.
	NetBandwidth float64
}

// Cluster is an ordered set of workers. Worker indices (0-based positions)
// are the worker references used by placement plans.
type Cluster struct {
	workers []Worker
}

// ErrWorkerID reports a worker ID that is empty, repeated or holds a '.'.
var ErrWorkerID = errors.New("cluster: invalid worker ID")

// New creates a cluster from the given workers. It returns an error if any
// worker is malformed or IDs collide (wrapping ErrWorkerID for a bad ID).
func New(workers []Worker) (*Cluster, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	seen := make(map[string]bool, len(workers))
	for i, w := range workers {
		if w.ID == "" || seen[w.ID] || strings.Contains(w.ID, ".") {
			return nil, fmt.Errorf("%w: worker %d has ID %q (empty, repeated or dotted)", ErrWorkerID, i, w.ID)
		}
		seen[w.ID] = true
		if w.Slots <= 0 {
			return nil, fmt.Errorf("cluster: worker %q has %d slots", w.ID, w.Slots)
		}
		if w.CPU <= 0 || w.IOBandwidth <= 0 || w.NetBandwidth <= 0 {
			return nil, fmt.Errorf("cluster: worker %q has non-positive capacity", w.ID)
		}
	}
	return &Cluster{workers: append([]Worker(nil), workers...)}, nil
}

// Homogeneous builds a cluster of n identical workers, the resource model
// assumed by the paper's formulation (§4.1). IDs are "w0".."w<n-1>".
func Homogeneous(n, slots int, cpu, ioBW, netBW float64) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive worker count %d", n)
	}
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = Worker{
			ID:           fmt.Sprintf("w%d", i),
			Slots:        slots,
			CPU:          cpu,
			IOBandwidth:  ioBW,
			NetBandwidth: netBW,
		}
	}
	return New(ws)
}

// NumWorkers returns the number of workers.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// Worker returns the worker at index i.
func (c *Cluster) Worker(i int) Worker { return c.workers[i] }

// Workers returns a copy of all workers.
func (c *Cluster) Workers() []Worker { return append([]Worker(nil), c.workers...) }

// TotalSlots returns the total number of compute slots across workers.
func (c *Cluster) TotalSlots() int {
	n := 0
	for _, w := range c.workers {
		n += w.Slots
	}
	return n
}

// SlotsPerWorker returns the uniform slot count if all workers expose the
// same number of slots, and an error otherwise. The CAPS formulation assumes
// homogeneous workers; heterogeneous clusters must be handled by the caller.
func (c *Cluster) SlotsPerWorker() (int, error) {
	s := c.workers[0].Slots
	for _, w := range c.workers[1:] {
		if w.Slots != s {
			return 0, fmt.Errorf("cluster: heterogeneous slot counts (%d vs %d)", s, w.Slots)
		}
	}
	return s, nil
}

// IsHomogeneous reports whether all workers have identical slot counts and
// capacities.
func (c *Cluster) IsHomogeneous() bool {
	w0 := c.workers[0]
	for _, w := range c.workers[1:] {
		if w.Slots != w0.Slots || w.CPU != w0.CPU ||
			w.IOBandwidth != w0.IOBandwidth || w.NetBandwidth != w0.NetBandwidth {
			return false
		}
	}
	return true
}

// Fits reports whether numTasks tasks can be deployed on the cluster
// (the paper's model assumption that total slots suffice).
func (c *Cluster) Fits(numTasks int) bool { return numTasks <= c.TotalSlots() }

// Subset returns a new cluster consisting of the first n workers. It is used
// by auto-scaling experiments where DS2 grows or shrinks the worker pool.
func (c *Cluster) Subset(n int) (*Cluster, error) {
	if n <= 0 || n > len(c.workers) {
		return nil, fmt.Errorf("cluster: subset size %d out of range [1,%d]", n, len(c.workers))
	}
	return New(c.workers[:n])
}
