package dask

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"mdtask/internal/engine"
)

// ScatterElementLimit models the Dask limitation the paper hit in
// §4.3.1: scatter turns the dataset into a per-element list, which
// failed to broadcast the 524k-atom system. Broadcasting a slice longer
// than this fails with ErrScatter.
const ScatterElementLimit = 300_000

// ErrScatter is returned by Executor.Broadcast for datasets above
// ScatterElementLimit.
var ErrScatter = fmt.Errorf("dask: scatter cannot broadcast datasets larger than %d elements (per-element list materialization)", ScatterElementLimit)

// Executor runs engine tasks the way the paper's Dask implementations
// do (§4.2): one delayed function per task, the whole graph handed to
// the distributed scheduler in a single Compute; reductions fold
// through a Bag (§3.2).
type Executor struct {
	client *Client
	// scattered are the Broadcast futures; every later task node
	// depends on them, as a dask task depends on the scattered data it
	// reads.
	scattered []*Delayed
}

// NewExecutor returns the engine.Executor of client. Once cancel (nil:
// never) reports true the client's scheduler starts no further task.
func NewExecutor(client *Client, cancel func() bool) *Executor {
	client.Cancel = cancel
	return &Executor{client: client}
}

// Metrics implements engine.Executor.
func (e *Executor) Metrics() *engine.Metrics { return e.client.Metrics }

// Broadcast implements engine.Executor with Scatter, inheriting its
// per-element limit.
func (e *Executor) Broadcast(v any, bytes int64) (any, error) {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Slice && rv.Len() > ScatterElementLimit {
		return nil, ErrScatter
	}
	e.scattered = append(e.scattered, e.client.Scatter("broadcast", v, bytes))
	return v, nil
}

// node wraps task i as a delayed function declaring its working set,
// so a client MemoryLimit restarts the worker on oversized tasks
// (§4.3.3).
func (e *Executor) node(i int, mem int64, run func() (any, error)) *Delayed {
	return e.client.DelayedMem(fmt.Sprintf("task-%d", i), mem,
		func([]interface{}) (interface{}, error) { return run() }, e.scattered...)
}

// Map implements engine.Executor: one delayed node per task, one
// Compute.
func (e *Executor) Map(tasks []engine.Task) ([]any, error) {
	nodes := make([]*Delayed, len(tasks))
	for i, t := range tasks {
		nodes[i] = e.node(i, t.Mem, t.Run)
	}
	return e.client.Compute(nodes...)
}

// Reduce implements engine.Executor: the task nodes become the
// partitions of a Bag folded by BagFold's binary combine tree, all in
// one Compute. Every task value enters the fold, so the shuffled volume
// is the sum of their wire sizes.
func (e *Executor) Reduce(tasks []engine.Task, merge func(a, b any) any) (any, int64, error) {
	if len(tasks) == 0 {
		return nil, 0, nil
	}
	var shuffled atomic.Int64
	parts := make([]*Delayed, len(tasks))
	for i, t := range tasks {
		parts[i] = e.node(i, t.Mem, func() (any, error) {
			v, err := t.Run()
			shuffled.Add(engine.WireBytes(v))
			return []any{v}, err
		})
	}
	merge = engine.MergeNil(merge)
	folded := BagFold[any, any](BagFromDelayed[any](e.client, parts), nil, merge, merge)
	vals, err := e.client.Compute(folded)
	if err != nil {
		return nil, 0, err
	}
	e.client.Metrics.AddShuffle(shuffled.Load())
	return vals[0], shuffled.Load(), nil
}
