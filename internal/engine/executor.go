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
// was built with reports true (Map then returns ErrCancelled), surfaces
// a task panic as a *TaskPanicError, counts one Failures per failed
// task, and accounts tasks, stages, shuffle and broadcast bytes into
// the sink Metrics returns. It adds the tasks it
// schedules to TasksPlanned when it schedules them, so a completed run
// ends with Tasks equal to TasksPlanned.
type Executor interface {
	// Map runs every task and returns their values in task order.
	Map(tasks []Task) ([]any, error)
	// Broadcast ships one read-only value to every worker, accounting
	// bytes once, and returns the handle tasks read it through.
	Broadcast(v any, bytes int64) (any, error)
	// Metrics is the sink the engine accounts into.
	Metrics() *Metrics
}

// Task is one independent closure of a Map.
type Task func() (any, error)

// ErrCancelled is returned by Map when the run's cancel
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
		if err != nil {
			m.RecordFailure()
		}
		m.RecordTask(time.Since(start))
	}()
	return fn()
}

// Serial is the reference executor: tasks run one after another on the
// calling goroutine, each Map is one stage, and nothing moves between
// workers.
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
	s.metrics.Add(Snapshot{TasksPlanned: int64(len(tasks))})
	out := make([]any, len(tasks))
	for i, t := range tasks {
		if s.cancel != nil && s.cancel() {
			return nil, ErrCancelled
		}
		err := RunTask(s.metrics, i, func() (err error) {
			out[i], err = t()
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

// Map runs fn(0) … fn(n-1) as one task each on ex and returns the typed
// values in task order (Go interface methods cannot be generic, so the
// typed form is a free function over the contract).
func Map[T any](ex Executor, n int, fn func(i int) (T, error)) ([]T, error) {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func() (any, error) { return fn(i) }
	}
	vals, err := ex.Map(tasks)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out, nil
}
