package dask

import (
	"fmt"
	"reflect"

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
// the distributed scheduler in a single Compute.
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

// Map implements engine.Executor: one delayed node per task, one
// Compute.
func (e *Executor) Map(tasks []engine.Task) ([]any, error) {
	nodes := make([]*Delayed, len(tasks))
	for i, run := range tasks {
		nodes[i] = e.client.Delayed(fmt.Sprintf("task-%d", i),
			func([]interface{}) (interface{}, error) { return run() }, e.scattered...)
		nodes[i].task = i
	}
	return e.client.Compute(nodes...)
}
