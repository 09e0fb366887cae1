package rdd

import "mdtask/internal/engine"

// Executor runs engine tasks the way the paper's PySpark
// implementations do (§4.2): an RDD with one partition per task, the
// tasks executed in a map over the partitions, one stage per action.
type Executor struct{ ctx *Context }

// NewExecutor returns the engine.Executor of ctx. Once cancel (nil:
// never) reports true the context's pool hands out no further
// partitions.
func NewExecutor(ctx *Context, cancel func() bool) *Executor {
	ctx.pool.Cancel = cancel
	return &Executor{ctx: ctx}
}

// Metrics implements engine.Executor.
func (e *Executor) Metrics() *engine.Metrics { return e.ctx.Metrics }

// Broadcast implements engine.Executor with a broadcast variable.
func (e *Executor) Broadcast(v any, bytes int64) (any, error) {
	return NewBroadcast(e.ctx, v, bytes).Value, nil
}

// Map implements engine.Executor: Parallelize → Map → Collect.
func (e *Executor) Map(tasks []engine.Task) ([]any, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	r := Parallelize(e.ctx, tasks, len(tasks))
	return Map(r, func(t engine.Task) (any, error) { return t() }).Collect()
}
