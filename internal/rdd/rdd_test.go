package rdd

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mdtask/internal/proptest"
)

func intRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizePartitioning(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, intRange(10), 3)
	if r.numParts != 3 {
		t.Fatalf("partitions = %d", r.numParts)
	}
	got, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, intRange(10)) {
		t.Fatalf("Collect = %v", got)
	}
}

func TestParallelizeMorePartitionsThanData(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, intRange(3), 10)
	if r.numParts != 3 {
		t.Errorf("partitions clamped to %d, want 3", r.numParts)
	}
	got, err := r.Collect()
	if err != nil || len(got) != 3 {
		t.Errorf("Collect = %v, %v", got, err)
	}
}

func TestParallelizeZeroCutsOnePartitionPerWorker(t *testing.T) {
	ctx := NewContext(3)
	r := Parallelize(ctx, intRange(10), 0)
	if w := ctx.pool.Workers(); w != 3 || r.numParts != w {
		t.Fatalf("partitions = %d, want the pool's %d workers (3)", r.numParts, w)
	}
}

func TestParallelizeEmpty(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, []int(nil), 0)
	got, err := r.Collect()
	if err != nil || len(got) != 0 {
		t.Errorf("Collect = %v, %v", got, err)
	}
}

func TestMapMatchesSerialQuick(t *testing.T) {
	ctx := NewContext(4)
	f := func(data []int16, parts uint8) bool {
		np := int(parts%8) + 1
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		r := Map(Parallelize(ctx, ints, np), func(x int) (int, error) { return x * x, nil })
		got, err := r.Collect()
		if err != nil {
			return false
		}
		for i, v := range ints {
			if got[i] != v*v {
				return false
			}
		}
		return len(got) == len(ints)
	}
	proptest.Check(t, f, &quick.Config{MaxCount: 50})
}

func TestErrorPropagation(t *testing.T) {
	ctx := NewContext(2)
	r := Map(Parallelize(ctx, intRange(10), 2), func(x int) (int, error) {
		if x == 5 {
			return 0, errors.New("bad element")
		}
		return x, nil
	})
	if _, err := r.Collect(); err == nil || !strings.Contains(err.Error(), "bad element") {
		t.Fatalf("err = %v", err)
	}
}

func TestWithoutPersistRecomputes(t *testing.T) {
	ctx := NewContext(4)
	var computations int64
	r := Map(Parallelize(ctx, intRange(10), 2), func(x int) (int, error) {
		atomic.AddInt64(&computations, 1)
		return x, nil
	})
	_, _ = r.Collect()
	_, _ = r.Collect()
	if got := atomic.LoadInt64(&computations); got != 20 {
		t.Errorf("map ran %d times, want 20 (no cache)", got)
	}
}

func TestBroadcastAccounting(t *testing.T) {
	ctx := NewContext(2)
	b := NewBroadcast(ctx, []int{1, 2, 3}, 24)
	if b.Value[1] != 2 || b.Bytes != 24 {
		t.Errorf("broadcast = %+v", b)
	}
	if ctx.Metrics.Snapshot().BytesBroadcast != 24 {
		t.Error("broadcast bytes not accounted")
	}
}

func TestStageCounting(t *testing.T) {
	ctx := NewContext(2)
	r := Map(Parallelize(ctx, intRange(10), 2), func(x int) (int, error) { return x, nil })
	_, _ = r.Collect() // stage 1: narrow chain collapses to one stage
	s := ctx.Metrics.Snapshot()
	if s.Stages != 1 {
		t.Errorf("stages = %d, want 1 (pipelined narrow ops)", s.Stages)
	}
	_, _ = r.Collect() // each action runs its own stage
	s = ctx.Metrics.Snapshot()
	if s.Stages != 2 {
		t.Errorf("stages = %d, want 2", s.Stages)
	}
}

func TestRangeRDD(t *testing.T) {
	ctx := NewContext(2)
	r := Range(ctx, 5, 5)
	got, err := r.Collect()
	if err != nil || !reflect.DeepEqual(got, intRange(5)) {
		t.Fatalf("Range = %v, %v", got, err)
	}
}
