package dask

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSubmitAndResult(t *testing.T) {
	c := NewClient(2)
	f := c.Submit("answer", func([]interface{}) (interface{}, error) { return 41 + 1, nil })
	v, err := f.Result()
	if err != nil || v.(int) != 42 {
		t.Fatalf("Result = %v, %v", v, err)
	}
	if !f.Done() {
		t.Error("Done = false after Result")
	}
}

func TestSubmitDependencies(t *testing.T) {
	c := NewClient(4)
	a := c.Submit("a", func([]interface{}) (interface{}, error) {
		time.Sleep(2 * time.Millisecond)
		return 10, nil
	})
	b := c.Submit("b", func(args []interface{}) (interface{}, error) {
		return args[0].(int) * 3, nil
	}, a)
	vals, err := c.Gather(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(int) != 10 || vals[1].(int) != 30 {
		t.Fatalf("Gather = %v", vals)
	}
}

func TestGatherPropagatesError(t *testing.T) {
	c := NewClient(2)
	bad := c.Submit("bad", func([]interface{}) (interface{}, error) {
		return nil, errors.New("future failed")
	})
	if _, err := c.Gather(bad); err == nil || !strings.Contains(err.Error(), "future failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestManyConcurrentFutures(t *testing.T) {
	c := NewClient(8)
	futures := make([]*Future, 200)
	for i := range futures {
		i := i
		futures[i] = c.Submit("n", func([]interface{}) (interface{}, error) { return i, nil })
	}
	vals, err := c.Gather(futures...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(int) != i {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
}
