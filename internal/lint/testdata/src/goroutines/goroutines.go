// Package engine is a capslint fixture exercising the goroutines analyzer:
// go func literals must carry a lifecycle tie-off.
package engine

import (
	"net"
	"sync"
)

// Spawn has no tie-off: one finding. Capturing the loop variable is fine
// since Go 1.22 made it per iteration.
func Spawn(items []int, sink func(int)) {
	for _, it := range items {
		go func() {
			sink(it)
		}()
	}
}

// SpawnJoined passes the loop variable as an argument and joins via the
// WaitGroup; must not be flagged.
func SpawnJoined(items []int, sink func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(it int) {
			defer wg.Done()
			sink(it)
		}(it)
	}
	wg.Wait()
}

// SpawnStoppable watches a stop channel and must not be flagged.
func SpawnStoppable(stop chan struct{}, work chan int, sink func(int)) {
	go func() {
		for {
			select {
			case w := <-work:
				sink(w)
			case <-stop:
				return
			}
		}
	}()
}

// SpawnDraining ranges over a closable channel (the sender owns the
// lifecycle) and must not be flagged.
func SpawnDraining(work chan int, sink func(int)) {
	go func() {
		for w := range work {
			sink(w)
		}
	}()
}

// ServeConns is the goroutine-per-connection idiom the network data plane
// uses: the accept loop and each connection's reader loop block in
// Accept/Read and return on error, so their lifecycle is the connection's —
// closing the listener or conn stops them. No findings.
func ServeConns(ln net.Listener, handle func([]byte)) {
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					handle(buf[:n])
				}
			}(c)
		}
	}()
}

// SpawnConnWriter only writes; a write loop can block forever on a stuck
// peer without an error, so it is NOT the reader idiom and must be
// flagged.
func SpawnConnWriter(c net.Conn, src chan []byte) {
	go func() {
		for {
			b := <-src
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
}

// chainTask models the fused-chain runtime shape: a head task owns the
// goroutine, fused members are driven inline by direct calls.
type chainTask struct {
	fusedIn bool
	fused   []*chainTask
}

func (t *chainTask) drive() {
	for _, m := range t.fused {
		m.drive()
	}
}

// RunFusedChains is the operator-fusion idiom: one goroutine per chain HEAD,
// joined on a WaitGroup — fused members are skipped (no goroutine of their
// own) and run inline inside the head's literal via direct calls. The task
// pointer is passed as an argument, not captured. No findings.
func RunFusedChains(tasks []*chainTask) {
	var wg sync.WaitGroup
	for _, rt := range tasks {
		if rt.fusedIn {
			continue
		}
		wg.Add(1)
		go func(rt *chainTask) {
			defer wg.Done()
			rt.drive()
		}(rt)
	}
	wg.Wait()
}
