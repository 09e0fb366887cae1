// The engine.Executor contract, as one table-driven suite run against
// every implementation — serial, rdd, dask, mpi — plus a deliberately
// odd fake, so the suite is known to test the contract rather than any
// one scheduler: psa.Run and leaflet.Run rely on exactly these
// properties and nothing else.
package conformtest

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/mpi"
	"mdtask/internal/rdd"
)

const execWorkers = 4

// backwards is the fake: it runs tasks one at a time in reverse order,
// a schedule no real engine uses, and moves no bytes.
type backwards struct {
	cancel func() bool
	m      engine.Metrics
}

func (b *backwards) Metrics() *engine.Metrics { return &b.m }

func (b *backwards) Broadcast(v any, bytes int64) (any, error) {
	b.m.AddBroadcast(bytes)
	return v, nil
}

func (b *backwards) Map(tasks []engine.Task) ([]any, error) {
	b.m.Add(engine.Snapshot{TasksPlanned: int64(len(tasks))})
	out := make([]any, len(tasks))
	for i := len(tasks) - 1; i >= 0; i-- {
		if b.cancel != nil && b.cancel() {
			return nil, engine.ErrCancelled
		}
		err := engine.RunTask(&b.m, i, func() (err error) {
			out[i], err = tasks[i]()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// executors lists every implementation under test.
var executors = []struct {
	name  string
	start func(cancel func() bool) engine.Executor
}{
	{"serial", func(c func() bool) engine.Executor { return engine.NewSerial(c) }},
	{"rdd", func(c func() bool) engine.Executor { return rdd.NewExecutor(rdd.NewContext(execWorkers), c) }},
	{"dask", func(c func() bool) engine.Executor { return dask.NewExecutor(dask.NewClient(execWorkers), c) }},
	{"mpi", func(c func() bool) engine.Executor { return mpi.NewExecutor(execWorkers, c) }},
	{"fake", func(c func() bool) engine.Executor { return &backwards{cancel: c} }},
}

var execSizes = []int{0, 1, execWorkers - 1, 10 * execWorkers}

func TestExecutorMapOrderAndTaskCount(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			ex := e.start(nil)
			for _, n := range execSizes {
				before := ex.Metrics().Snapshot().Tasks
				got, err := engine.Map(ex, n, func(i int) (int, error) { return i * i, nil })
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if len(got) != n {
					t.Fatalf("n=%d: %d values", n, len(got))
				}
				for i, v := range got {
					if v != i*i {
						t.Fatalf("n=%d: value %d = %d, want %d (not in task order)", n, i, v, i*i)
					}
				}
				snap := ex.Metrics().Snapshot()
				if grew := snap.Tasks - before; grew != int64(n) {
					t.Fatalf("n=%d: Tasks grew by %d", n, grew)
				}
				if snap.TasksPlanned != snap.Tasks {
					t.Fatalf("n=%d: planned %d tasks, ran %d", n, snap.TasksPlanned, snap.Tasks)
				}
			}
			if f := ex.Metrics().Snapshot().Failures; f != 0 {
				t.Fatalf("clean maps recorded %d failures", f)
			}
		})
	}
}

func TestExecutorTaskErrorAndPanic(t *testing.T) {
	boom := errors.New("boom")
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			ex := e.start(nil)
			_, err := engine.Map(ex, 2*execWorkers, func(i int) (int, error) {
				if i == 1 {
					return 0, boom
				}
				return i, nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("task error surfaced as %v", err)
			}
			if f := ex.Metrics().Snapshot().Failures; f != 1 {
				t.Fatalf("task error counted %d failures, want 1", f)
			}

			ex = e.start(nil)
			_, err = engine.Map(ex, 2*execWorkers, func(i int) (int, error) {
				if i == 1 {
					panic("kaboom")
				}
				return i, nil
			})
			var pe *engine.TaskPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("task panic surfaced as %v, want a TaskPanicError", err)
			}
			if pe.Task != 1 {
				t.Fatalf("panic names task %d, want 1 (its index in the Map)", pe.Task)
			}
			if f := ex.Metrics().Snapshot().Failures; f != 1 {
				t.Fatalf("task panic counted %d failures, want 1", f)
			}
		})
	}
}

func TestExecutorStopsOnCancel(t *testing.T) {
	const n = 10 * execWorkers
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			// Cancelled before the run: nothing may start.
			var started atomic.Int64
			body := func(i int) (int, error) { started.Add(1); return i, nil }
			ex := e.start(func() bool { return true })
			if _, err := engine.Map(ex, n, body); !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("pre-cancelled Map returned %v", err)
			}
			if started.Load() != 0 {
				t.Fatalf("%d tasks started on a cancelled run", started.Load())
			}

			// Cancelled by the first task to run: only tasks a worker had
			// already been handed may still start.
			var cancelled atomic.Bool
			started.Store(0)
			ex = e.start(cancelled.Load)
			_, err := engine.Map(ex, n, func(i int) (int, error) {
				cancelled.Store(true)
				started.Add(1)
				return i, nil
			})
			if !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("mid-run cancel returned %v", err)
			}
			if s := started.Load(); s < 1 || s > execWorkers {
				t.Fatalf("%d tasks started around the cancel, want 1..%d", s, execWorkers)
			}
		})
	}
}

func TestExecutorBroadcastAccountsOnce(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			ex := e.start(nil)
			payload := []float64{1, 2, 3}
			h, err := ex.Broadcast(payload, 24)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.([]float64); len(got) != 3 || got[2] != 3 {
				t.Fatalf("handle = %v", h)
			}
			// A broadcast is accounted as broadcast, once, and moves
			// nothing through the shuffle, whatever carries it to the
			// workers (mpi's binomial tree).
			if snap := ex.Metrics().Snapshot(); snap.BytesBroadcast != 24 || snap.BytesShuffled != 0 {
				t.Fatalf("BytesBroadcast = %d, BytesShuffled = %d; want 24, 0", snap.BytesBroadcast, snap.BytesShuffled)
			}
			// Tasks read the broadcast through the handle.
			sums, err := engine.Map(ex, 3, func(i int) (float64, error) { return h.([]float64)[i], nil })
			if err != nil || sums[0]+sums[1]+sums[2] != 6 {
				t.Fatalf("tasks over the handle: %v, %v", sums, err)
			}
			snap := ex.Metrics().Snapshot()
			if snap.BytesBroadcast != 24 {
				t.Fatalf("BytesBroadcast = %d after the map, want 24", snap.BytesBroadcast)
			}
			if snap.TasksPlanned != snap.Tasks {
				t.Fatalf("planned %d tasks, ran %d", snap.TasksPlanned, snap.Tasks)
			}
		})
	}
}

// A seeded property over every executor: a Map with either one
// failing task or a cancel raised by a random task. A run that
// completes returns every value in task order, a failed run returns the
// task's error and no values, a cancelled run returns ErrCancelled, and
// no run records more tasks than it planned.
func TestExecutorMapUnderFailureAndCancel(t *testing.T) {
	boom := errors.New("boom")
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(4*execWorkers)
				at := rng.Intn(n)
				failing := rng.Intn(2) == 0
				var cancelled atomic.Bool
				ex := e.start(cancelled.Load)
				tasks := make([]engine.Task, n)
				for i := range tasks {
					tasks[i] = func() (any, error) {
						if i == at {
							if failing {
								return nil, boom
							}
							cancelled.Store(true)
						}
						return i, nil
					}
				}
				vals, err := ex.Map(tasks)
				switch {
				case err == nil:
					if failing {
						t.Fatalf("seed %d: task %d of %d failed, yet the run completed", seed, at, n)
					}
					if len(vals) != n {
						t.Fatalf("seed %d: %d values for %d tasks", seed, len(vals), n)
					}
					for i, v := range vals {
						if v != i {
							t.Fatalf("seed %d: value %d = %v, not in task order", seed, i, v)
						}
					}
				case failing:
					if !errors.Is(err, boom) || vals != nil {
						t.Fatalf("seed %d: failed run returned %v, %v; want the task's error and no values", seed, vals, err)
					}
				default:
					if !errors.Is(err, engine.ErrCancelled) || vals != nil {
						t.Fatalf("seed %d: cancelled run returned %v, %v; want ErrCancelled and no values", seed, vals, err)
					}
				}
				if snap := ex.Metrics().Snapshot(); snap.Tasks > snap.TasksPlanned {
					t.Fatalf("seed %d: ran %d tasks, planned %d", seed, snap.Tasks, snap.TasksPlanned)
				}
			}
		})
	}
}
