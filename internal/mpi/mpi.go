// Package mpi is an MPI-like SPMD runtime: a fixed set of ranks run the
// same function concurrently (as goroutines) and communicate through
// collectives (Bcast, Gather) over a channel fabric. It stands in for
// the paper's MPI4py baselines: the Leaflet Finder and PSA MPI
// implementations in this repository run unchanged semantics — rank-0
// gathers, binomial-tree broadcast, static work partitioning — with
// Bcast's bytes accounted as broadcast for the experiment harness.
//
// Executor is the package's engine.Executor: the shared analyses
// (psa.Run, leaflet.Run) run on it as a rank loop plus collectives: a
// Bcast for Broadcast, a Gather at rank 0 for Map.
package mpi

import (
	"fmt"
	"sync"

	"mdtask/internal/engine"
)

// world is the shared state of one Run: the channel fabric and the
// abort signal.
type world struct {
	size    int
	coll    []chan any // coll[src*size+dst], the collectives' fabric
	metrics *engine.Metrics

	abortOnce sync.Once
	abort     chan struct{}
}

// abortError unwinds a rank when the world has been aborted because a
// peer failed.
type abortError struct{ rank int }

func (e abortError) Error() string {
	return fmt.Sprintf("mpi: rank %d aborted: a peer rank failed", e.rank)
}

// Comm is one rank's communicator handle.
type Comm struct {
	w    *world
	rank int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// Run executes fn on size ranks concurrently and waits for all of them.
// It returns the first rank error; if a rank fails or panics the world
// is aborted so blocked peers unwind instead of deadlocking. The
// metrics sink may be nil.
func Run(size int, m *engine.Metrics, fn func(c *Comm) error) error {
	if size < 1 {
		return fmt.Errorf("mpi: world size must be >= 1, got %d", size)
	}
	w := &world{
		size:    size,
		coll:    make([]chan any, size*size),
		metrics: m,
		abort:   make(chan struct{}),
	}
	for i := range w.coll {
		w.coll[i] = make(chan any, 8)
	}

	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					if ae, ok := v.(abortError); ok {
						errs[rank] = ae
						return
					}
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, v)
					w.doAbort()
				}
			}()
			if err := fn(&Comm{w: w, rank: rank}); err != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
				w.doAbort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if _, aborted := err.(abortError); !aborted {
				return err
			}
		}
	}
	// Only abort-unwinds (no root cause captured) — report the first.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// doAbort wakes every blocked rank with an abort panic.
func (w *world) doAbort() {
	w.abortOnce.Do(func() { close(w.abort) })
}

func (w *world) checkAbort(rank int) {
	select {
	case <-w.abort:
		panic(abortError{rank})
	default:
	}
}

// send transfers v to rank dst, respecting aborts. It accounts
// nothing: each collective accounts its messages under its own kind.
func (c *Comm) send(dst int, v any) {
	c.w.checkAbort(c.rank)
	select {
	case c.w.coll[c.rank*c.w.size+dst] <- v:
	case <-c.w.abort:
		panic(abortError{c.rank})
	}
}

// recv receives the next value rank src sent the calling rank.
func (c *Comm) recv(src int) any {
	c.w.checkAbort(c.rank)
	select {
	case v := <-c.w.coll[src*c.w.size+c.rank]:
		return v
	case <-c.w.abort:
		panic(abortError{c.rank})
	}
}
