package engine

import (
	"errors"
	"time"
)

// Executor is the one seam between an analysis and the runtime that
// executes it. An analysis is written once as closures over this
// contract; each engine package (rdd, dask, mpi, and the serial loop
// here) implements it on its own primitives, so the paper's framework
// comparison — an RDD with one partition per task, a graph of delayed
// functions, a rank loop plus collectives — lives entirely behind it.
//
// Every executor stops handing out tasks once the cancel function it
// was built with reports true (Map and Reduce then return
// ErrCancelled), surfaces a task panic as a *TaskPanicError, counts one
// Failures per failed task, and accounts tasks, stages, shuffle and
// broadcast bytes into the sink Metrics returns.
type Executor interface {
	// Map runs every task and returns their values in task order.
	Map(tasks []Task) ([]any, error)
	// Reduce runs every task and combines their values with merge using
	// the engine's native reduction. merge must be associative; the
	// result equals the left fold over task order. It also returns the
	// bytes that crossed the engine's shuffle to produce the result
	// (the Sized values that moved — per task on the shared-memory
	// engines, per rank after local combining on MPI). Zero tasks
	// reduce to a nil value.
	Reduce(tasks []Task, merge func(a, b any) any) (v any, shuffled int64, err error)
	// Broadcast ships one read-only value to every worker, accounting
	// bytes once, and returns the handle tasks read it through.
	Broadcast(v any, bytes int64) (any, error)
	// Metrics is the sink the engine accounts into.
	Metrics() *Metrics
}

// Task is one independent closure of a Map or Reduce.
type Task struct {
	// Mem is the task's declared peak working set in bytes (0:
	// undeclared). Only an executor that models worker memory acts on
	// it — dask's worker restart, the paper's §4.3.3.
	Mem int64
	Run func() (any, error)
}

// Sized is implemented by task values that know their serialized size,
// so executors can account the bytes a value costs to move (an MPI
// Gather payload, a shuffled reduce input).
type Sized interface{ WireBytes() int64 }

// WireBytes is v's declared wire size, 0 when v does not declare one.
func WireBytes(v any) int64 {
	if s, ok := v.(Sized); ok {
		return s.WireBytes()
	}
	return 0
}

// ErrCancelled is returned by Map and Reduce when the run's cancel
// function reported true before every task had been handed out.
var ErrCancelled = errors.New("engine: run cancelled")

// RunTask runs fn as task i with the accounting every executor shares:
// its wall time is recorded as one task, a panic is converted into a
// *TaskPanicError, and any error counts one failure. m may be nil.
func RunTask(m *Metrics, i int, fn func() error) (err error) {
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = &TaskPanicError{Task: i, Value: v}
		}
		if m != nil {
			if err != nil {
				m.RecordFailure()
			}
			m.RecordTask(time.Since(start))
		}
	}()
	return fn()
}

// MergeNil lifts an associative merge to values where nil is the
// identity, the seed the native reductions (bag fold accumulators, an
// MPI rank that drew no task) start from.
func MergeNil(merge func(a, b any) any) func(a, b any) any {
	return func(a, b any) any {
		switch {
		case a == nil:
			return b
		case b == nil:
			return a
		}
		return merge(a, b)
	}
}

// Serial is the reference executor: tasks run one after another on the
// calling goroutine, each Map or Reduce is one stage, and nothing moves
// between workers, so Reduce shuffles no bytes.
type Serial struct {
	cancel  func() bool
	metrics *Metrics
}

// NewSerial returns a serial executor with a fresh metrics sink; a nil
// cancel never cancels.
func NewSerial(cancel func() bool) *Serial {
	return &Serial{cancel: cancel, metrics: &Metrics{}}
}

// Metrics implements Executor.
func (s *Serial) Metrics() *Metrics { return s.metrics }

// Broadcast implements Executor: the value is already where the tasks
// run, so only the bytes are accounted.
func (s *Serial) Broadcast(v any, bytes int64) (any, error) {
	s.metrics.AddBroadcast(bytes)
	return v, nil
}

// Map implements Executor, stopping at the first task error.
func (s *Serial) Map(tasks []Task) ([]any, error) {
	out := make([]any, len(tasks))
	for i, t := range tasks {
		if s.cancel != nil && s.cancel() {
			return nil, ErrCancelled
		}
		err := RunTask(s.metrics, i, func() (err error) {
			out[i], err = t.Run()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if len(tasks) > 0 {
		s.metrics.RecordStage()
	}
	return out, nil
}

// Reduce implements Executor as a left fold over Map's values.
func (s *Serial) Reduce(tasks []Task, merge func(a, b any) any) (any, int64, error) {
	vals, err := s.Map(tasks)
	if err != nil {
		return nil, 0, err
	}
	var acc any
	merge = MergeNil(merge)
	for _, v := range vals {
		acc = merge(acc, v)
	}
	return acc, 0, nil
}

// tasksOf wraps n typed closures as executor tasks; a non-nil mem
// declares each task's working set.
func tasksOf[T any](n int, mem func(i int) int64, fn func(i int) (T, error)) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i].Run = func() (any, error) { return fn(i) }
		if mem != nil {
			tasks[i].Mem = mem(i)
		}
	}
	return tasks
}

// Map runs fn(0) … fn(n-1) as one task each on ex and returns the typed
// values in task order (Go interface methods cannot be generic, so the
// typed form is a free function over the contract). A non-nil mem
// declares task i's working set.
func Map[T any](ex Executor, n int, mem func(i int) int64, fn func(i int) (T, error)) ([]T, error) {
	vals, err := ex.Map(tasksOf(n, mem, fn))
	if err != nil {
		return nil, err
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out, nil
}

// Reduce is the typed form of Executor.Reduce; zero tasks reduce to the
// zero T.
func Reduce[T any](ex Executor, n int, mem func(i int) int64, fn func(i int) (T, error), merge func(a, b T) T) (T, int64, error) {
	v, shuffled, err := ex.Reduce(tasksOf(n, mem, fn), func(a, b any) any { return merge(a.(T), b.(T)) })
	if err != nil || v == nil {
		var zero T
		return zero, shuffled, err
	}
	return v.(T), shuffled, nil
}
