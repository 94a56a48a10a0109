// Package engine is a capslint fixture exercising the chans analyzer:
// sends on bounded channels must sit in a select with a stop/ctx or
// default case.
package engine

import "sync"

// Forward performs a bare send that blocks forever once the receiver dies.
func Forward(in, out chan int) {
	for v := range in {
		out <- v
	}
}

// ForwardNoEscape sends inside a select, but every case blocks.
func ForwardNoEscape(out, spill chan int, v int) {
	select {
	case out <- v:
	case spill <- v:
	}
}

// ForwardStoppable is the canonical cancellable send and must not be
// flagged.
func ForwardStoppable(out chan int, stop chan struct{}, v int) bool {
	select {
	case out <- v:
		return true
	case <-stop:
		return false
	}
}

// TrySend is best-effort via default and must not be flagged.
func TrySend(out chan int, v int) bool {
	select {
	case out <- v:
		return true
	default:
		return false
	}
}

// FanOut is the sized fan-in shape: one goroutine per job, each sending at
// most once into a channel with capacity len(jobs). The bare send can
// never block and must not be flagged.
func FanOut(jobs []func() error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j func() error) {
			defer wg.Done()
			if err := j(); err != nil {
				errCh <- err
			}
		}(j)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// FanOutLooped sizes the channel to the fan-in but sends repeatedly per
// goroutine, so the capacity does not bound the sends: still flagged.
func FanOutLooped(batches [][]int) {
	var wg sync.WaitGroup
	out := make(chan int, len(batches))
	for _, b := range batches {
		wg.Add(1)
		go func(b []int) {
			defer wg.Done()
			for _, v := range b {
				out <- v
			}
		}(b)
	}
	wg.Wait()
}

// FanOutWrongSize sizes the channel to a different collection than the one
// fanned over, so the bound is not established: still flagged.
func FanOutWrongSize(jobs []func() error, others []int) {
	var wg sync.WaitGroup
	errCh := make(chan error, len(others))
	for _, j := range jobs {
		wg.Add(1)
		go func(j func() error) {
			defer wg.Done()
			if err := j(); err != nil {
				errCh <- err
			}
		}(j)
	}
	wg.Wait()
}

// The two shapes below are the engine's own sends with their abort cases
// dropped. Each blocks forever once the receiving task is gone, yet the
// engine and controller tests pass with either in place: a live receiver
// drains its inbox to the end in every test run. chans is what catches them.

type message struct {
	ch    int
	batch []int
}

type edge struct {
	inboxes []chan message
}

// FlushBatch is the batched in-memory sender's flush (exchange.go): the
// batch goes to the inbox of the routed receiver, named by an index
// expression.
func FlushBatch(e *edge, idx int, batch []int) {
	e.inboxes[idx] <- message{ch: idx, batch: batch}
}

type chanPump struct {
	mu    sync.Mutex
	q     []message
	sig   chan struct{}
	stop  chan struct{}
	inbox chan message
}

// Run is the network pump's delivery loop (netexchange.go): the wait for
// work is cancellable, but the delivery into the task inbox is not.
func (p *chanPump) Run() {
	for {
		p.mu.Lock()
		var msg message
		ok := len(p.q) > 0
		if ok {
			msg, p.q = p.q[0], p.q[1:]
		}
		p.mu.Unlock()
		if !ok {
			select {
			case <-p.sig:
				continue
			case <-p.stop:
				return
			}
		}
		p.inbox <- msg
	}
}
