// Package rdd is a Spark-like data-parallel engine: an RDD abstraction
// with lazy narrow transformations, eager shuffle boundaries, actions,
// broadcast variables, caching, and a stage-oriented execution model.
// It reproduces — natively in Go, on goroutine workers — the execution
// semantics the paper exercises through PySpark: a job is a DAG of
// stages; each stage is a set of parallel tasks separated by barriers at
// shuffle points (§3.1).
//
// Narrow transformations (Map, Filter, FlatMap, MapPartitions) chain
// lazily and collapse into a single stage at the next action, exactly
// like Spark pipelining. Shuffle operations (ReduceByKey, GroupByKey,
// Repartition) materialize their map side eagerly, recording a stage
// barrier and the shuffled byte volume.
//
// Executor is the package's engine.Executor: the shared analyses
// (psa.Run, leaflet.Run) run on it as one partition per task.
package rdd

import (
	"errors"
	"fmt"
	"sync"

	"mdtask/internal/engine"
)

// Context owns the worker pool and metrics of one "application".
type Context struct {
	pool *engine.Pool
	// Metrics accumulates task counts, stages and shuffle volumes.
	Metrics *engine.Metrics
	// DefaultParallelism is the partition count used when callers pass 0.
	DefaultParallelism int
}

// NewContext creates a context running at the given parallelism
// (worker goroutines); values < 1 default to GOMAXPROCS.
func NewContext(parallelism int) *Context {
	m := &engine.Metrics{}
	p := engine.NewPool(parallelism, m)
	return &Context{pool: p, Metrics: m, DefaultParallelism: p.Workers()}
}

// RDD is a resilient-distributed-dataset analogue: a partitioned
// collection with a per-partition compute function. RDDs are immutable;
// transformations return new RDDs.
type RDD[T any] struct {
	ctx      *Context
	name     string
	numParts int
	compute  func(part int) ([]T, error)

	persist sync.Once
	cached  [][]T
	cacheOn bool
	cacheMu sync.Mutex
}

// Context returns the owning context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.numParts }

// Name returns the RDD's debug name.
func (r *RDD[T]) Name() string { return r.name }

// Parallelize distributes data across numParts partitions (0 uses the
// context default). Elements are split into contiguous ranges, like
// Spark's parallelize.
func Parallelize[T any](ctx *Context, data []T, numParts int) *RDD[T] {
	if numParts <= 0 {
		numParts = ctx.DefaultParallelism
	}
	if numParts > len(data) && len(data) > 0 {
		numParts = len(data)
	}
	if numParts == 0 {
		numParts = 1
	}
	n := len(data)
	return &RDD[T]{
		ctx:      ctx,
		name:     "parallelize",
		numParts: numParts,
		compute: func(part int) ([]T, error) {
			lo := part * n / numParts
			hi := (part + 1) * n / numParts
			return data[lo:hi], nil
		},
	}
}

// FromPartitions builds an RDD with one partition per element of parts.
// The slices are referenced, not copied.
func FromPartitions[T any](ctx *Context, parts [][]T) *RDD[T] {
	return &RDD[T]{
		ctx:      ctx,
		name:     "fromPartitions",
		numParts: len(parts),
		compute:  func(part int) ([]T, error) { return parts[part], nil },
	}
}

// Range creates an RDD of the integers [0, n) in numParts partitions,
// the idiom the paper uses to map "one task per partition".
func Range(ctx *Context, n, numParts int) *RDD[int] {
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	return Parallelize(ctx, data, numParts)
}

// Map applies f to every element (narrow; pipelined into the current
// stage).
func Map[T, U any](r *RDD[T], f func(T) (U, error)) *RDD[U] {
	return &RDD[U]{
		ctx:      r.ctx,
		name:     r.name + "|map",
		numParts: r.numParts,
		compute: func(part int) ([]U, error) {
			in, err := r.materializedPartition(part)
			if err != nil {
				return nil, err
			}
			out := make([]U, len(in))
			for i, v := range in {
				if out[i], err = f(v); err != nil {
					return nil, err
				}
			}
			return out, nil
		},
	}
}

// Filter keeps the elements for which pred is true (narrow).
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return &RDD[T]{
		ctx:      r.ctx,
		name:     r.name + "|filter",
		numParts: r.numParts,
		compute: func(part int) ([]T, error) {
			in, err := r.materializedPartition(part)
			if err != nil {
				return nil, err
			}
			var out []T
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out, nil
		},
	}
}

// FlatMap applies f and concatenates the results (narrow).
func FlatMap[T, U any](r *RDD[T], f func(T) ([]U, error)) *RDD[U] {
	return &RDD[U]{
		ctx:      r.ctx,
		name:     r.name + "|flatMap",
		numParts: r.numParts,
		compute: func(part int) ([]U, error) {
			in, err := r.materializedPartition(part)
			if err != nil {
				return nil, err
			}
			var out []U
			for _, v := range in {
				us, err := f(v)
				if err != nil {
					return nil, err
				}
				out = append(out, us...)
			}
			return out, nil
		},
	}
}

// MapPartitions transforms each whole partition at once (narrow), the
// transformation the paper's 2-D partitioned implementations use.
func MapPartitions[T, U any](r *RDD[T], f func(part int, in []T) ([]U, error)) *RDD[U] {
	return &RDD[U]{
		ctx:      r.ctx,
		name:     r.name + "|mapPartitions",
		numParts: r.numParts,
		compute: func(part int) ([]U, error) {
			in, err := r.materializedPartition(part)
			if err != nil {
				return nil, err
			}
			return f(part, in)
		},
	}
}

// materializedPartition returns partition part, from cache if persisted.
func (r *RDD[T]) materializedPartition(part int) ([]T, error) {
	r.cacheMu.Lock()
	if r.cached != nil {
		p := r.cached[part]
		r.cacheMu.Unlock()
		return p, nil
	}
	r.cacheMu.Unlock()
	return r.compute(part)
}

// Persist marks the RDD for caching: the first action materializes all
// partitions and later actions reuse them, like Spark's MEMORY_ONLY
// persistence.
func (r *RDD[T]) Persist() *RDD[T] {
	r.cacheOn = true
	return r
}

// runStage computes every partition on the pool and returns them.
// It records one stage in the metrics.
func (r *RDD[T]) runStage() ([][]T, error) {
	r.cacheMu.Lock()
	if r.cached != nil {
		c := r.cached
		r.cacheMu.Unlock()
		return c, nil
	}
	r.cacheMu.Unlock()

	r.ctx.Metrics.RecordStage()
	parts := make([][]T, r.numParts)
	err := r.ctx.pool.ForEach(r.numParts, func(i int) error {
		p, err := r.compute(i)
		if err != nil {
			return fmt.Errorf("rdd %s partition %d: %w", r.name, i, err)
		}
		parts[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	if r.cacheOn {
		r.cacheMu.Lock()
		if r.cached == nil {
			r.cached = parts
		}
		r.cacheMu.Unlock()
	}
	return parts, nil
}

// Collect runs the job and returns all elements in partition order.
func (r *RDD[T]) Collect() ([]T, error) {
	parts, err := r.runStage()
	if err != nil {
		return nil, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count runs the job and returns the element count.
func (r *RDD[T]) Count() (int, error) {
	parts, err := r.runStage()
	if err != nil {
		return 0, err
	}
	var n int
	for _, p := range parts {
		n += len(p)
	}
	return n, nil
}

// ErrEmptyRDD is returned by Reduce on an empty dataset.
var ErrEmptyRDD = errors.New("rdd: reduce of empty RDD")

// Reduce combines all elements with the associative function f.
func Reduce[T any](r *RDD[T], f func(T, T) T) (T, error) {
	var zero T
	parts, err := r.runStage()
	if err != nil {
		return zero, err
	}
	acc := zero
	have := false
	for _, p := range parts {
		for _, v := range p {
			if !have {
				acc, have = v, true
			} else {
				acc = f(acc, v)
			}
		}
	}
	if !have {
		return zero, ErrEmptyRDD
	}
	return acc, nil
}
