package mpi

import "mdtask/internal/engine"

// Executor runs engine tasks as an SPMD program, the paper's "realized
// as a loop for MPI": every call is one Run over the world, each rank
// loops over its share of the tasks, and results travel to rank 0
// through a Gather.
type Executor struct {
	ranks   int
	cancel  func() bool
	metrics *engine.Metrics
}

// NewExecutor returns an executor over a world of the given size with
// a fresh metrics sink. Once cancel (nil: never) reports true ranks
// start no further task.
func NewExecutor(ranks int, cancel func() bool) *Executor {
	return &Executor{ranks: ranks, cancel: cancel, metrics: &engine.Metrics{}}
}

// boxed carries a possibly-nil value through the typed collectives,
// whose receive side asserts a non-nil payload.
type boxed struct{ v any }

// Metrics implements engine.Executor.
func (e *Executor) Metrics() *engine.Metrics { return e.metrics }

// Broadcast implements engine.Executor with a binomial-tree Bcast from
// rank 0.
func (e *Executor) Broadcast(v any, bytes int64) (any, error) {
	err := Run(e.ranks, e.metrics, func(c *Comm) error {
		var mine boxed
		if c.Rank() == 0 {
			mine.v = v
		}
		Bcast(c, 0, mine, bytes)
		return nil
	})
	return v, err
}

// Map implements engine.Executor: tasks are cycled over the ranks (one
// task per process, cycling) and each rank's values are gathered at
// rank 0.
func (e *Executor) Map(tasks []engine.Task) ([]any, error) {
	e.metrics.Add(engine.Snapshot{TasksPlanned: int64(len(tasks))})
	out := make([]any, len(tasks))
	err := Run(e.ranks, e.metrics, func(c *Comm) error {
		var local []any
		for i := c.Rank(); i < len(tasks); i += c.Size() {
			if e.cancel != nil && e.cancel() {
				return engine.ErrCancelled
			}
			var v any
			err := engine.RunTask(e.metrics, i, func() (err error) {
				v, err = tasks[i]()
				return err
			})
			if err != nil {
				return err
			}
			local = append(local, v)
		}
		for rank, vals := range Gather(c, 0, local) {
			for k, v := range vals {
				out[rank+k*c.Size()] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
