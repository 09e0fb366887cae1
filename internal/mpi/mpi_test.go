package mpi

import (
	"errors"
	"fmt"
	mathrand "math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mdtask/internal/engine"
	"mdtask/internal/proptest"
)

func TestRunBasics(t *testing.T) {
	var count int64
	err := Run(8, nil, func(c *Comm) error {
		if c.Size() != 8 {
			t.Errorf("Size = %d", c.Size())
		}
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Errorf("ranks ran = %d", count)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, nil, func(*Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, "ping")
			if got := c.Recv(1).(string); got != "pong" {
				t.Errorf("rank 0 got %q", got)
			}
		} else {
			if got := c.Recv(0).(string); got != "ping" {
				t.Errorf("rank 1 got %q", got)
			}
			c.Send(0, "pong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderingFIFO(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, i)
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := c.Recv(0).(int); got != i {
					t.Errorf("message %d arrived as %d", i, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			size := 1 + r.Intn(12)
			args[0] = reflect.ValueOf(size)
			args[1] = reflect.ValueOf(r.Intn(size))
			args[2] = reflect.ValueOf(r.Int())
		},
	}
	f := func(size, root, payload int) bool {
		ok := true
		err := Run(size, nil, func(c *Comm) error {
			v := -1
			if c.Rank() == root {
				v = payload
			}
			got := Bcast(c, root, v, 8)
			if got != payload {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	proptest.Check(t, f, cfg)
}

// Gather collects every rank's value at a non-zero root, in rank order;
// the other ranks get nil.
func TestScatterGather(t *testing.T) {
	const size = 6
	err := Run(size, nil, func(c *Comm) error {
		gathered := Gather(c, 2, (10+c.Rank())*2)
		if c.Rank() == 2 {
			want := []int{20, 22, 24, 26, 28, 30}
			if !reflect.DeepEqual(gathered, want) {
				t.Errorf("gathered = %v", gathered)
			}
		} else if gathered != nil {
			t.Errorf("non-root rank %d got %v", c.Rank(), gathered)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorAbortsWorld(t *testing.T) {
	err := Run(4, nil, func(c *Comm) error {
		if c.Rank() == 2 {
			return errors.New("rank 2 exploded")
		}
		// Other ranks block on a receive that will never be satisfied;
		// the abort must unwind them instead of deadlocking.
		c.Recv((c.Rank() + 1) % 4)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestRankPanicAbortsWorld(t *testing.T) {
	err := Run(3, nil, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("rank 1 crashed")
		}
		// The peers wait on the crashed rank; the abort unwinds them.
		c.Recv(1)
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	err := Run(2, nil, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(5, "x")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestByteAccounting(t *testing.T) {
	m := &engine.Metrics{}
	// A Bcast accounts once, at root, as broadcast (its three tree
	// sends are that broadcast); a Gather accounts nothing — collecting
	// results is not a shuffle.
	err := Run(4, m, func(c *Comm) error {
		Bcast(c, 0, 1, 1000)
		Gather(c, 0, c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.BytesBroadcast != 1000 {
		t.Errorf("broadcast bytes = %d, want 1000", s.BytesBroadcast)
	}
	if s.BytesShuffled != 0 {
		t.Errorf("shuffle bytes = %d after a gather, want 0", s.BytesShuffled)
	}
}

func TestAllGatherLargePayloads(t *testing.T) {
	// Stress buffered fabric with larger worlds.
	const size = 16
	err := Run(size, nil, func(c *Comm) error {
		data := make([]int, 100)
		for i := range data {
			data[i] = c.Rank()
		}
		gathered := Gather(c, 0, data)
		if c.Rank() == 0 {
			var ranks []int
			for src, d := range gathered {
				if d[0] != src {
					t.Errorf("payload from %d tagged %d", src, d[0])
				}
				ranks = append(ranks, d[0])
			}
			sort.Ints(ranks)
			for i, r := range ranks {
				if r != i {
					t.Errorf("missing rank payloads: %v", ranks)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Send transfers value to rank dst (eager, buffered) over the fabric
// the collectives use: the tests drive rank-to-rank traffic and the
// abort paths with it.
func (c *Comm) Send(dst int, value interface{}) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, c.w.size))
	}
	c.send(dst, value)
}

// Recv receives the next message from rank src.
func (c *Comm) Recv(src int) interface{} {
	if src < 0 || src >= c.w.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d (size %d)", src, c.w.size))
	}
	return c.recv(src)
}
