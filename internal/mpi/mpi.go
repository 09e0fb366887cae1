// Package mpi is an MPI-like SPMD runtime: a fixed set of ranks run the
// same function concurrently (as goroutines) and communicate through
// typed point-to-point messages and collectives (Bcast, Scatter, Gather,
// Reduce, Allreduce, Barrier). It stands in for the paper's MPI4py
// baselines: the Leaflet Finder and PSA MPI implementations in this
// repository run unchanged semantics — rank-0 gathers, binomial-tree
// broadcast, static work partitioning — with per-operation byte
// accounting feeding the experiment harness.
//
// Executor is the package's engine.Executor: the shared analyses
// (psa.Run, leaflet.Run) run on it as a rank loop plus collectives.
package mpi

import (
	"fmt"
	"sync"

	"mdtask/internal/engine"
)

// message is one transfer between ranks.
type message struct {
	value interface{}
	bytes int64
}

// world is the shared state of one Run: the channel fabric and barrier.
type world struct {
	size    int
	p2p     []chan message // p2p[src*size+dst]
	coll    []chan message // separate fabric for collectives
	metrics *engine.Metrics

	bar struct {
		mu      sync.Mutex
		cond    *sync.Cond
		count   int
		gen     int
		aborted bool
	}

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
	if m == nil {
		m = &engine.Metrics{}
	}
	w := &world{
		size:    size,
		p2p:     make([]chan message, size*size),
		coll:    make([]chan message, size*size),
		metrics: m,
		abort:   make(chan struct{}),
	}
	for i := range w.p2p {
		w.p2p[i] = make(chan message, 8)
		w.coll[i] = make(chan message, 8)
	}
	w.bar.cond = sync.NewCond(&w.bar.mu)

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
	w.abortOnce.Do(func() {
		close(w.abort)
		w.bar.mu.Lock()
		w.bar.aborted = true // release current and future barrier waiters
		w.bar.cond.Broadcast()
		w.bar.mu.Unlock()
	})
}

func (w *world) checkAbort(rank int) {
	select {
	case <-w.abort:
		panic(abortError{rank})
	default:
	}
}

// send transfers a message on the given fabric, respecting aborts.
func (c *Comm) send(fabric []chan message, dst int, msg message) {
	c.w.checkAbort(c.rank)
	select {
	case fabric[c.rank*c.w.size+dst] <- msg:
		c.w.metrics.AddShuffle(msg.bytes)
	case <-c.w.abort:
		panic(abortError{c.rank})
	}
}

func (c *Comm) recv(fabric []chan message, src int) message {
	c.w.checkAbort(c.rank)
	select {
	case msg := <-fabric[src*c.w.size+c.rank]:
		return msg
	case <-c.w.abort:
		panic(abortError{c.rank})
	}
}

// Send transfers value to rank dst (eager, buffered). bytes is the
// payload size used for accounting.
func (c *Comm) Send(dst int, value interface{}, bytes int64) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, c.w.size))
	}
	c.send(c.w.p2p, dst, message{value, bytes})
}

// Recv receives the next message from rank src.
func (c *Comm) Recv(src int) interface{} {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d (size %d)", src, c.w.size))
	}
	return c.recv(c.w.p2p, src).value
}

// Barrier blocks until every rank reaches it. If the world aborts
// (a peer failed), waiting and arriving ranks unwind instead of
// deadlocking on ranks that will never arrive.
func (c *Comm) Barrier() {
	b := &c.w.bar
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		panic(abortError{c.rank})
	}
	gen := b.gen
	b.count++
	if b.count == c.w.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	aborted := b.aborted
	b.mu.Unlock()
	if aborted {
		panic(abortError{c.rank})
	}
}
