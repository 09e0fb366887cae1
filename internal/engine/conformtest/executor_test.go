// The engine.Executor contract, as one table-driven suite run against
// every implementation — serial, rdd, dask, mpi — plus a deliberately
// odd fake, so the suite is known to test the contract rather than any
// one scheduler: psa.Run and leaflet.Run rely on exactly these
// properties and nothing else.
package conformtest

import (
	"errors"
	"fmt"
	"strings"
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
	out := make([]any, len(tasks))
	for i := len(tasks) - 1; i >= 0; i-- {
		if b.cancel != nil && b.cancel() {
			return nil, engine.ErrCancelled
		}
		err := engine.RunTask(&b.m, i, func() (err error) {
			out[i], err = tasks[i].Run()
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (b *backwards) Reduce(tasks []engine.Task, merge func(a, b any) any) (any, int64, error) {
	vals, err := b.Map(tasks)
	if err != nil {
		return nil, 0, err
	}
	var acc any
	merge = engine.MergeNil(merge)
	for _, v := range vals {
		acc = merge(acc, v)
	}
	return acc, 0, nil
}

// executors lists every implementation under test. shuffles marks the
// ones whose Reduce moves task values between workers and so must
// report their wire bytes.
var executors = []struct {
	name     string
	shuffles bool
	start    func(cancel func() bool) engine.Executor
}{
	{"serial", false, func(c func() bool) engine.Executor { return engine.NewSerial(c) }},
	{"rdd", true, func(c func() bool) engine.Executor { return rdd.NewExecutor(rdd.NewContext(execWorkers), c) }},
	{"dask", true, func(c func() bool) engine.Executor { return dask.NewExecutor(dask.NewClient(execWorkers), c) }},
	{"mpi", true, func(c func() bool) engine.Executor { return mpi.NewExecutor(execWorkers, c) }},
	{"fake", false, func(c func() bool) engine.Executor { return &backwards{cancel: c} }},
}

var execSizes = []int{0, 1, execWorkers - 1, 10 * execWorkers}

// word is a task value that declares its wire size.
type word string

func (w word) WireBytes() int64 { return int64(len(w)) }

func wordTask(i int) (word, error) { return word(fmt.Sprintf("<%d>", i)), nil }

func TestExecutorMapOrderAndTaskCount(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			ex := e.start(nil)
			for _, n := range execSizes {
				before := ex.Metrics().Snapshot().Tasks
				got, err := engine.Map(ex, n, nil, func(i int) (int, error) { return i * i, nil })
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
				if grew := ex.Metrics().Snapshot().Tasks - before; grew != int64(n) {
					t.Fatalf("n=%d: Tasks grew by %d", n, grew)
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
			_, err := engine.Map(ex, 2*execWorkers, nil, func(i int) (int, error) {
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
			_, _, err = engine.Reduce(ex, 2*execWorkers, nil, func(i int) (int, error) {
				if i == 1 {
					panic("kaboom")
				}
				return i, nil
			}, func(a, b int) int { return a + b })
			var pe *engine.TaskPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("task panic surfaced as %v, want a TaskPanicError", err)
			}
			if f := ex.Metrics().Snapshot().Failures; f != 1 {
				t.Fatalf("task panic counted %d failures, want 1", f)
			}
		})
	}
}

// String concatenation is associative but not commutative, so equality
// with the left fold pins the combine order of rdd.Reduce, the bag
// fold's binary tree and the MPI rank-local + rank-ordered reduction.
func TestExecutorReduceIsLeftFold(t *testing.T) {
	for _, e := range executors {
		t.Run(e.name, func(t *testing.T) {
			ex := e.start(nil)
			for _, n := range execSizes {
				var want strings.Builder
				for i := 0; i < n; i++ {
					w, _ := wordTask(i)
					want.WriteString(string(w))
				}
				before := ex.Metrics().Snapshot()
				got, shuffled, err := engine.Reduce(ex, n, nil, wordTask, func(a, b word) word { return a + b })
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if string(got) != want.String() {
					t.Fatalf("n=%d: reduced to %q, want the left fold %q", n, got, want.String())
				}
				after := ex.Metrics().Snapshot()
				if grew := after.Tasks - before.Tasks; grew < int64(n) {
					t.Fatalf("n=%d: Tasks grew by %d", n, grew)
				}
				wantShuffled := int64(0)
				if e.shuffles {
					wantShuffled = int64(want.Len()) // concatenation keeps every byte
				}
				if shuffled != wantShuffled || after.BytesShuffled-before.BytesShuffled < shuffled {
					t.Fatalf("n=%d: shuffled %d (sink grew %d), want %d",
						n, shuffled, after.BytesShuffled-before.BytesShuffled, wantShuffled)
				}
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
			if _, err := engine.Map(ex, n, nil, body); !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("pre-cancelled Map returned %v", err)
			}
			if _, _, err := engine.Reduce(ex, n, nil, body, func(a, b int) int { return a + b }); !errors.Is(err, engine.ErrCancelled) {
				t.Fatalf("pre-cancelled Reduce returned %v", err)
			}
			if started.Load() != 0 {
				t.Fatalf("%d tasks started on a cancelled run", started.Load())
			}

			// Cancelled by the first task to run: only tasks a worker had
			// already been handed may still start.
			var cancelled atomic.Bool
			started.Store(0)
			ex = e.start(cancelled.Load)
			_, err := engine.Map(ex, n, nil, func(i int) (int, error) {
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
			if b := ex.Metrics().Snapshot().BytesBroadcast; b != 24 {
				t.Fatalf("BytesBroadcast = %d, want 24", b)
			}
			// Tasks read the broadcast through the handle.
			sums, err := engine.Map(ex, 3, nil, func(i int) (float64, error) { return h.([]float64)[i], nil })
			if err != nil || sums[0]+sums[1]+sums[2] != 6 {
				t.Fatalf("tasks over the handle: %v, %v", sums, err)
			}
			if b := ex.Metrics().Snapshot().BytesBroadcast; b != 24 {
				t.Fatalf("BytesBroadcast = %d after the map, want 24", b)
			}
		})
	}
}
