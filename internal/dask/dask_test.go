package dask

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDelayedSingle(t *testing.T) {
	c := NewClient(2)
	d := c.Delayed("answer", func([]interface{}) (interface{}, error) { return 42, nil })
	vals, err := c.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 42 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestDelayedDependencies(t *testing.T) {
	c := NewClient(4)
	a := c.Value("a", 3)
	b := c.Value("b", 4)
	sum := c.Delayed("sum", func(args []interface{}) (interface{}, error) {
		return args[0].(int) + args[1].(int), nil
	}, a, b)
	sq := c.Delayed("square", func(args []interface{}) (interface{}, error) {
		v := args[0].(int)
		return v * v, nil
	}, sum)
	vals, err := c.Compute(sq)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 49 {
		t.Fatalf("got %v", vals[0])
	}
}

func TestDiamondDependencyComputesOnce(t *testing.T) {
	c := NewClient(4)
	var runs int64
	base := c.Delayed("base", func([]interface{}) (interface{}, error) {
		atomic.AddInt64(&runs, 1)
		return 1, nil
	})
	left := c.Delayed("left", func(args []interface{}) (interface{}, error) {
		return args[0].(int) + 10, nil
	}, base)
	right := c.Delayed("right", func(args []interface{}) (interface{}, error) {
		return args[0].(int) + 20, nil
	}, base)
	top := c.Delayed("top", func(args []interface{}) (interface{}, error) {
		return args[0].(int) + args[1].(int), nil
	}, left, right)
	vals, err := c.Compute(top)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 32 {
		t.Fatalf("got %v", vals[0])
	}
	if runs != 1 {
		t.Errorf("base ran %d times", runs)
	}
}

func TestMemoizationAcrossComputes(t *testing.T) {
	c := NewClient(2)
	var runs int64
	d := c.Delayed("once", func([]interface{}) (interface{}, error) {
		atomic.AddInt64(&runs, 1)
		return "x", nil
	})
	for i := 0; i < 3; i++ {
		if _, err := c.Compute(d); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Errorf("node ran %d times across Computes", runs)
	}
}

func TestErrorPropagation(t *testing.T) {
	c := NewClient(2)
	bad := c.Delayed("bad", func([]interface{}) (interface{}, error) {
		return nil, errors.New("exploded")
	})
	dep := c.Delayed("dep", func(args []interface{}) (interface{}, error) {
		return args[0], nil
	}, bad)
	if _, err := c.Compute(dep); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicCapture(t *testing.T) {
	c := NewClient(2)
	d := c.Delayed("panics", func([]interface{}) (interface{}, error) { panic("ouch") })
	if _, err := c.Compute(d); err == nil || !strings.Contains(err.Error(), "ouch") {
		t.Fatalf("err = %v", err)
	}
}

func TestScatterAccountsBroadcast(t *testing.T) {
	c := NewClient(2)
	s := c.Scatter("data", []int{1, 2, 3}, 24)
	vals, err := c.Compute(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals[0], []int{1, 2, 3}) {
		t.Fatalf("vals = %v", vals)
	}
	if c.Metrics.Snapshot().BytesBroadcast != 24 {
		t.Error("scatter bytes not accounted")
	}
}

func TestComputeMultipleRoots(t *testing.T) {
	c := NewClient(3)
	ds := make([]*Delayed, 10)
	for i := range ds {
		i := i
		ds[i] = c.Delayed("n", func([]interface{}) (interface{}, error) { return i * i, nil })
	}
	vals, err := c.Compute(ds...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i*i {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
}

func TestWorkersDefault(t *testing.T) {
	if NewClient(0).workers < 1 {
		t.Error("workers < 1")
	}
}
