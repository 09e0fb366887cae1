// Package dask is a Dask-like task-graph engine: delayed nodes form an
// arbitrary DAG that a dependency-driven distributed scheduler executes
// on worker goroutines, plus a Bag collection API layered on top. It
// reproduces the execution semantics the paper exercises through
// Dask.distributed (§3.2): tasks run as soon as their inputs are
// satisfied — there are no stage barriers — and the per-task overhead is
// low, which is what gives Dask its task-throughput advantage in the
// paper's Figures 2 and 3.
//
// The scheduler also models Dask's operational memory guard: workers
// restart when a task's declared working set exceeds the memory limit
// (the behaviour that stopped the paper's 4M-atom Approach-3 run,
// §4.3.3). Use DelayedMem to declare working sets.
//
// Executor is the package's engine.Executor: the shared analyses
// (psa.Run, leaflet.Run) run on it as one delayed node per task, with
// the scatter limit of §4.3.1 enforced by its Broadcast.
package dask

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mdtask/internal/engine"
)

// Client owns the scheduler, worker pool, and metrics of a Dask-like
// cluster.
type Client struct {
	workers int
	// Metrics accumulates task and byte accounting.
	Metrics *engine.Metrics
	// MemoryLimit, when > 0, causes tasks whose declared working set
	// exceeds it to fail with ErrWorkerRestarted.
	MemoryLimit int64
	// Cancel, when non-nil, is polled before each task starts: once it
	// reports true the scheduler runs no further task bodies and
	// Compute fails with engine.ErrCancelled.
	Cancel func() bool

	mu     sync.Mutex
	nextID int64
}

// NewClient creates a client with the given worker parallelism
// (< 1 defaults to GOMAXPROCS).
func NewClient(workers int) *Client {
	m := &engine.Metrics{}
	p := engine.NewPool(workers, m)
	return &Client{workers: p.Workers(), Metrics: m}
}

// Workers returns the scheduler's parallelism.
func (c *Client) Workers() int { return c.workers }

// ErrWorkerRestarted signals that a worker exceeded its memory budget
// and was restarted, losing the task (Dask's nanny behaviour at 95%
// utilization).
var ErrWorkerRestarted = errors.New("dask: worker restarted: memory utilization reached 95%")

// Delayed is a lazy task: a function of the results of its dependencies.
// Results are memoized, so a node shared by several graphs computes
// once.
type Delayed struct {
	client *Client
	id     int64
	name   string
	fn     func(args []interface{}) (interface{}, error)
	deps   []*Delayed
	mem    int64

	onceRun sync.Once
	ran     atomic.Bool
	val     interface{}
	err     error
}

// Delayed wraps fn as a graph node depending on deps. At execution, fn
// receives the dependency results in order.
func (c *Client) Delayed(name string, fn func(args []interface{}) (interface{}, error), deps ...*Delayed) *Delayed {
	return c.DelayedMem(name, 0, fn, deps...)
}

// DelayedMem is Delayed with a declared peak working set in bytes,
// checked against the client's MemoryLimit.
func (c *Client) DelayedMem(name string, memBytes int64, fn func(args []interface{}) (interface{}, error), deps ...*Delayed) *Delayed {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	return &Delayed{client: c, id: id, name: name, fn: fn, deps: deps, mem: memBytes}
}

// Value wraps an already-computed value as a graph node.
func (c *Client) Value(name string, v interface{}) *Delayed {
	d := c.Delayed(name, func([]interface{}) (interface{}, error) { return v, nil })
	return d
}

// Scatter ships data to the workers ahead of computation, accounting
// the broadcast bytes. In-process this is a reference, but the byte
// accounting feeds the experiment harness's broadcast measurements.
func (c *Client) Scatter(name string, v interface{}, bytes int64) *Delayed {
	c.Metrics.AddBroadcast(bytes)
	return c.Value(name+"/scattered", v)
}

// Compute executes the graphs rooted at the given nodes and returns
// their results in order. Execution is dependency-driven: a node runs as
// soon as all dependencies finish, with no global barriers.
func (c *Client) Compute(roots ...*Delayed) ([]interface{}, error) {
	// Discover the graph.
	indeg := make(map[*Delayed]int)
	dependents := make(map[*Delayed][]*Delayed)
	var order []*Delayed
	var visit func(d *Delayed)
	seen := make(map[*Delayed]bool)
	visit = func(d *Delayed) {
		if seen[d] {
			return
		}
		seen[d] = true
		order = append(order, d)
		todo := 0
		for _, dep := range d.deps {
			if !dep.computed() {
				todo++
				dependents[dep] = append(dependents[dep], d)
				visit(dep)
			}
		}
		indeg[d] = todo
	}
	for _, r := range roots {
		visit(r)
	}

	ready := make(chan *Delayed, len(order))
	pending := 0
	for _, d := range order {
		if d.computed() {
			continue
		}
		pending++
		if indeg[d] == 0 {
			ready <- d
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		left     = pending
	)
	if pending == 0 {
		close(ready)
	}
	workers := c.workers
	if workers > pending {
		workers = pending
	}
	complete := func(d *Delayed) {
		mu.Lock()
		defer mu.Unlock()
		if d.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dask: task %s: %w", d.name, d.err)
		}
		for _, dep := range dependents[d] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready <- dep
			}
		}
		left--
		if left == 0 {
			close(ready)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ready {
				d.run()
				complete(d)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]interface{}, len(roots))
	for i, r := range roots {
		if r.err != nil {
			return nil, fmt.Errorf("dask: task %s: %w", r.name, r.err)
		}
		out[i] = r.val
	}
	return out, nil
}

// computed reports whether the node already ran (successfully or not).
func (d *Delayed) computed() bool { return d.ran.Load() }

func (d *Delayed) run() {
	d.onceRun.Do(func() {
		defer d.ran.Store(true)
		if d.client.Cancel != nil && d.client.Cancel() {
			d.err = engine.ErrCancelled
			return
		}
		if d.client.MemoryLimit > 0 && d.mem > 0 {
			if float64(d.mem) > 0.95*float64(d.client.MemoryLimit) {
				d.err = fmt.Errorf("%w (task %s needs %d bytes, limit %d)",
					ErrWorkerRestarted, d.name, d.mem, d.client.MemoryLimit)
				d.client.Metrics.RecordFailure()
				return
			}
		}
		args := make([]interface{}, len(d.deps))
		for i, dep := range d.deps {
			if dep.err != nil {
				d.err = dep.err
				return
			}
			args[i] = dep.val
		}
		d.err = engine.RunTask(d.client.Metrics, int(d.id), func() (err error) {
			d.val, err = d.fn(args)
			return err
		})
	})
}
