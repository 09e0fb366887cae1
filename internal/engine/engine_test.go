package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllIterations(t *testing.T) {
	p := NewPool(4, nil)
	var count int64
	seen := make([]int32, 100)
	err := p.ForEach(100, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	p := NewPool(3, nil)
	want := errors.New("boom")
	var ran int64
	err := p.ForEach(50, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 7 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if ran != 50 {
		t.Errorf("only %d iterations ran; all should be attempted", ran)
	}
}

// TestPoolErrorLowestIndex: the error ForEach returns is the lowest
// failing index's, even when a higher index failed first in time.
func TestPoolErrorLowestIndex(t *testing.T) {
	p := NewPool(2, nil)
	late, early := errors.New("index 2"), errors.New("index 5")
	fiveFailed := make(chan struct{})
	err := p.ForEach(8, func(i int) error {
		switch i {
		case 2:
			<-fiveFailed // the other worker runs 3, 4, 5 meanwhile
			return late
		case 5:
			close(fiveFailed)
			return early
		}
		return nil
	})
	if err != late {
		t.Fatalf("err = %v, want %v", err, late)
	}
}

func TestPoolPanicCapture(t *testing.T) {
	m := &Metrics{}
	p := NewPool(2, m)
	err := p.ForEach(10, func(i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	var pe *TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want TaskPanicError", err)
	}
	if pe.Task != 3 {
		t.Errorf("panicked task = %d", pe.Task)
	}
	if m.Snapshot().Failures != 1 {
		t.Errorf("failures = %d", m.Snapshot().Failures)
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0, nil)
	if p.Workers() < 1 {
		t.Errorf("Workers = %d", p.Workers())
	}
	if err := p.ForEach(0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("ForEach(0) = %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := &Metrics{}
	m.RecordTask(2 * time.Millisecond)
	m.RecordTask(5 * time.Millisecond)
	m.RecordStage()
	m.AddShuffle(100)
	m.AddBroadcast(50)
	m.AddStaged(25)
	s := m.Snapshot()
	if s.Tasks != 2 || s.Stages != 1 {
		t.Errorf("tasks=%d stages=%d", s.Tasks, s.Stages)
	}
	if s.ComputeTime != 7*time.Millisecond {
		t.Errorf("compute = %v", s.ComputeTime)
	}
	if s.MaxTask != 5*time.Millisecond || s.MinTask != 2*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.MinTask, s.MaxTask)
	}
	if s.BytesShuffled != 100 || s.BytesBroadcast != 50 || s.BytesStaged != 25 {
		t.Errorf("bytes = %d/%d/%d", s.BytesShuffled, s.BytesBroadcast, s.BytesStaged)
	}
}

func TestMetricsPairCounters(t *testing.T) {
	m := &Metrics{}
	m.AddPairs(10, 20, 5)
	m.AddPairs(1, 2, 3)
	s := m.Snapshot()
	if s.PairsEvaluated != 11 || s.PairsPruned != 22 || s.PairsAbandoned != 8 {
		t.Errorf("pairs = %d/%d/%d", s.PairsEvaluated, s.PairsPruned, s.PairsAbandoned)
	}
	agg := &Metrics{}
	agg.AddPairs(100, 0, 0)
	agg.MergeFrom(m)
	if got := agg.Snapshot(); got.PairsEvaluated != 111 || got.PairsPruned != 22 || got.PairsAbandoned != 8 {
		t.Errorf("merged pairs = %d/%d/%d", got.PairsEvaluated, got.PairsPruned, got.PairsAbandoned)
	}
}

func TestPoolMoreWorkersThanTasks(t *testing.T) {
	p := NewPool(64, nil)
	var count int64
	if err := p.ForEach(3, func(int) error { atomic.AddInt64(&count, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d", count)
	}
}
