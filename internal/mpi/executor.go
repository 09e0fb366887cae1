package mpi

import "mdtask/internal/engine"

// Executor runs engine tasks as an SPMD program, the paper's "realized
// as a loop for MPI": every call is one Run over the world, each rank
// loops over its share of the tasks, and results travel to rank 0
// through collectives whose sends account the bytes moved.
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

// runLocal runs tasks lo, lo+step, … below hi on the calling rank,
// folding each value into the rank-local state.
func (e *Executor) runLocal(tasks []engine.Task, lo, hi, step int, fold func(v any)) error {
	for i := lo; i < hi; i += step {
		if e.cancel != nil && e.cancel() {
			return engine.ErrCancelled
		}
		var v any
		err := engine.RunTask(e.metrics, i, func() (err error) {
			v, err = tasks[i].Run()
			return err
		})
		if err != nil {
			return err
		}
		fold(v)
	}
	return nil
}

// Map implements engine.Executor: tasks are cycled over the ranks (one
// task per process, cycling) and each rank's values are gathered at
// rank 0.
func (e *Executor) Map(tasks []engine.Task) ([]any, error) {
	out := make([]any, len(tasks))
	err := Run(e.ranks, e.metrics, func(c *Comm) error {
		var (
			local []any
			bytes int64
		)
		err := e.runLocal(tasks, c.Rank(), len(tasks), c.Size(), func(v any) {
			local = append(local, v)
			bytes += engine.WireBytes(v)
		})
		if err != nil {
			return err
		}
		for rank, vals := range Gather(c, 0, local, bytes) {
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

// Reduce implements engine.Executor: each rank combines a contiguous
// range of tasks locally (BlockRange, so that the rank-ordered Reduce
// at rank 0 composes to the left fold over task order), and only the
// combined partials cross the network. The shuffled volume is the
// Allreduce'd sum of the partials' wire sizes.
func (e *Executor) Reduce(tasks []engine.Task, merge func(a, b any) any) (any, int64, error) {
	merge = engine.MergeNil(merge)
	var (
		out      any
		shuffled int64
	)
	err := Run(e.ranks, e.metrics, func(c *Comm) error {
		var local any
		lo, hi := BlockRange(len(tasks), c.Rank(), c.Size())
		if err := e.runLocal(tasks, lo, hi, 1, func(v any) { local = merge(local, v) }); err != nil {
			return err
		}
		localBytes := engine.WireBytes(local)
		total := Allreduce(c, localBytes, 8, func(a, b int64) int64 { return a + b })
		merged, isRoot := Reduce(c, 0, boxed{local}, localBytes, func(a, b boxed) boxed {
			return boxed{merge(a.v, b.v)}
		})
		if isRoot {
			out, shuffled = merged.v, total
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return out, shuffled, nil
}
