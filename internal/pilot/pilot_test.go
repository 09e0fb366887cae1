package pilot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdtask/internal/engine"
)

func newTestPilot(t *testing.T, cores int) *Pilot {
	t.Helper()
	p, err := NewPilot(cores, t.TempDir(), &engine.Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Shutdown)
	return p
}

func TestSubmitAndWait(t *testing.T) {
	p := newTestPilot(t, 4)
	var ran int64
	descs := make([]UnitDescription, 20)
	for i := range descs {
		descs[i] = UnitDescription{
			Name: fmt.Sprintf("u%d", i),
			Fn: func(string) error {
				atomic.AddInt64(&ran, 1)
				return nil
			},
		}
	}
	units := p.Submit(descs)
	if err := p.Wait(units); err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Errorf("ran = %d", ran)
	}
	if got := p.metrics.Snapshot().Tasks; got != 20 {
		t.Errorf("metrics tasks = %d", got)
	}
}

func TestInputStagingAndOutputCollection(t *testing.T) {
	p := newTestPilot(t, 2)
	units := p.Submit([]UnitDescription{{
		Name:        "copy",
		InputFiles:  map[string][]byte{"in.txt": []byte("hello staging")},
		OutputFiles: []string{"out.txt"},
		Fn: func(sandbox string) error {
			data, err := os.ReadFile(filepath.Join(sandbox, "in.txt"))
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(sandbox, "out.txt"),
				[]byte(strings.ToUpper(string(data))), 0o644)
		},
	}})
	if err := p.Wait(units); err != nil {
		t.Fatal(err)
	}
	out, ok := units[0].Output("out.txt")
	if !ok || string(out) != "HELLO STAGING" {
		t.Fatalf("output = %q, ok=%v", out, ok)
	}
	if p.metrics.Snapshot().BytesStaged == 0 {
		t.Error("staging bytes not accounted")
	}
}

func TestUnitFailureReported(t *testing.T) {
	p := newTestPilot(t, 2)
	units := p.Submit([]UnitDescription{
		{Name: "good", Fn: func(string) error { return nil }},
		{Name: "bad", Fn: func(string) error { return errors.New("task exploded") }},
	})
	werr := p.Wait(units)
	if werr == nil || !strings.Contains(werr.Error(), "task exploded") {
		t.Fatalf("Wait = %v", werr)
	}
}

func TestUnitPanicBecomesFailure(t *testing.T) {
	p := newTestPilot(t, 2)
	units := p.Submit([]UnitDescription{{
		Name: "panics",
		Fn:   func(string) error { panic("agent should survive") },
	}})
	if werr := p.Wait(units); werr == nil || !strings.Contains(werr.Error(), "panicked") {
		t.Fatalf("Wait = %v", werr)
	}
	if n := p.metrics.Snapshot().Failures; n != 1 {
		t.Errorf("a panicking unit counted %d failures, want 1", n)
	}
	// The agent must still execute subsequent units.
	units2 := p.Submit([]UnitDescription{{Name: "after", Fn: func(string) error { return nil }}})
	if err := p.Wait(units2); err != nil {
		t.Fatal(err)
	}
}

func TestMissingOutputIsFailure(t *testing.T) {
	p := newTestPilot(t, 1)
	units := p.Submit([]UnitDescription{{
		Name:        "forgetful",
		OutputFiles: []string{"never-written.bin"},
		Fn:          func(string) error { return nil },
	}})
	if werr := p.Wait(units); werr == nil {
		t.Fatal("missing output not reported")
	}
}

func TestConcurrencyBoundedByCores(t *testing.T) {
	p := newTestPilot(t, 3)
	var current, peak int64
	descs := make([]UnitDescription, 12)
	for i := range descs {
		descs[i] = UnitDescription{Name: "c", Fn: func(string) error {
			c := atomic.AddInt64(&current, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if c <= old || atomic.CompareAndSwapInt64(&peak, old, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&current, -1)
			return nil
		}}
	}
	units := p.Submit(descs)
	if err := p.Wait(units); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Errorf("peak concurrency %d exceeds cores", peak)
	}
}

func TestDBStateTransitions(t *testing.T) {
	db := newDB()
	db.Insert(1)
	st, _, err := db.GetState(1)
	if err != nil || st != StateNew {
		t.Fatalf("state = %v, %v", st, err)
	}
	if ids := db.ClaimNew(10); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("ClaimNew = %v", ids)
	}
	st, _, _ = db.GetState(1)
	if st != StateScheduling {
		t.Fatalf("state after claim = %v", st)
	}
	if err := db.SetState(1, StateFailed, "boom"); err != nil {
		t.Fatal(err)
	}
	st, msg, _ := db.GetState(1)
	if st != StateFailed || msg != "boom" {
		t.Fatalf("state = %v msg = %q", st, msg)
	}
	if err := db.SetState(99, StateDone, ""); err == nil {
		t.Error("SetState on unknown unit succeeded")
	}
	if _, _, err := db.GetState(99); err == nil {
		t.Error("GetState on unknown unit succeeded")
	}
}

func TestClaimNewBatchLimit(t *testing.T) {
	db := newDB()
	for i := 0; i < 10; i++ {
		db.Insert(i)
	}
	if ids := db.ClaimNew(4); len(ids) != 4 {
		t.Fatalf("ClaimNew = %d ids", len(ids))
	}
	if rest := db.ClaimNew(100); len(rest) != 6 {
		t.Fatalf("second ClaimNew = %d ids", len(rest))
	}
}

func TestMetricsSharedSink(t *testing.T) {
	m := &engine.Metrics{}
	p, err := NewPilot(1, t.TempDir(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Shutdown()
	units := p.Submit([]UnitDescription{{Name: "x", Fn: func(string) error { return nil }}})
	if err := p.Wait(units); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().Tasks != 1 {
		t.Error("external metrics sink not used")
	}
}

func TestSemaphoreStop(t *testing.T) {
	s := newSemaphore(1)
	stop := make(chan struct{})
	if !s.acquire(stop) {
		t.Fatal("first acquire failed")
	}
	result := make(chan bool)
	go func() { result <- s.acquire(stop) }()
	close(stop)
	select {
	case ok := <-result:
		if ok {
			t.Fatal("acquire succeeded after stop")
		}
	case <-time.After(time.Second):
		t.Fatal("acquire did not observe stop")
	}
}
