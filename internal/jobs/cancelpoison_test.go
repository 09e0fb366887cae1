package jobs

import (
	"sync/atomic"
	"testing"
	"time"

	"mdtask/internal/engine"
	"mdtask/internal/psa"
)

// A job cancelled mid-run must leave no partially-computed block
// observable in the shared store: the identical resubmission misses
// every block, runs fresh kernels, and assembles the same matrix a
// never-cancelled run would — not a zero-filled tail recorded by the
// cancelled attempt.
func TestCancelledJobPoisonsNoBlockEntries(t *testing.T) {
	started := make(chan struct{}, 1)
	var calls atomic.Int64
	reg := NewRegistry()
	must(reg.Register(RunnerName(AnalysisPSA, EngineSerial),
		func(rc *RunContext, spec Spec, in *Input) (*Result, error) {
			blocks, err := psa.Partition(len(in.Refs), 1, true)
			if err != nil {
				return nil, err
			}
			if calls.Add(1) == 1 {
				started <- struct{}{}
				for !rc.Cancelled() {
					time.Sleep(time.Millisecond)
				}
				// Attempt a block with cancellation already signalled: its
				// kernel zero-fills, and the store must refuse the value.
				if _, err := psa.ComputeBlockRefs(in.Refs, blocks[1], psa.Opts{
					Symmetric: true,
					Env:       engine.Env{Cancel: rc.Cancelled},
					Cache:     rc.BlockStore(),
				}); err != nil {
					return nil, err
				}
				return nil, ErrCancelled
			}
			// Resubmissions run the real cached block path.
			results := make([]psa.BlockResult, len(blocks))
			for i, b := range blocks {
				r, err := psa.ComputeBlockRefs(in.Refs, b, psa.Opts{
					Symmetric: true,
					Cache:     rc.BlockStore(),
					Env:       engine.Env{Metrics: rc.Metrics()},
				})
				if err != nil {
					return nil, err
				}
				results[i] = r
			}
			return &Result{Matrix: psa.Assemble(len(in.Refs), results)}, nil
		}))

	s := NewScheduler(reg, Options{Workers: 1})
	defer s.Close()
	spec := validPSASpec()
	spec.Engine = EngineSerial

	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := s.Cancel(first.ID()); !ok {
		t.Fatal("cancel rejected")
	}
	if st := waitTerminal(t, first); st.State != StateCancelled {
		t.Fatalf("first job finished %s", st.State)
	}
	if n := s.Metrics().CacheEntries; n != 0 {
		t.Fatalf("cancelled job left %d store entries", n)
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, second)
	if st.State != StateDone {
		t.Fatalf("resubmission finished %s (%s)", st.State, st.Error)
	}
	if st.CacheHit {
		t.Fatal("resubmission of a cancelled job served from the whole-job cache")
	}
	if st.Metrics.BlockCacheHits != 0 {
		t.Fatalf("resubmission hit %d blocks of a cancelled run", st.Metrics.BlockCacheHits)
	}

	// Reference matrix, computed outside any cache.
	norm, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	in, err := ResolveInput(norm)
	if err != nil {
		t.Fatal(err)
	}
	want, err := psa.SerialRefs(in.Refs, psa.Opts{Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := second.Result()
	if res == nil || res.Matrix == nil || len(res.Matrix.Data) != len(want.Data) {
		t.Fatalf("bad resubmission result %+v", res)
	}
	for i := range want.Data {
		if res.Matrix.Data[i] != want.Data[i] {
			t.Fatalf("matrix element %d differs: %v vs %v", i, res.Matrix.Data[i], want.Data[i])
		}
	}
}
