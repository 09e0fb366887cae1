package sim

import "testing"

func TestEventOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	if got := e.Run(); got != 3 {
		t.Errorf("final time = %v, want 3", got)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {
		e.Schedule(-10, func() {
			if e.Now() != 5 {
				t.Errorf("clamped event at %v, want 5", e.Now())
			}
		})
	})
	e.Run()
}

func TestAtInPastClamped(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {
		e.At(1, func() {
			if e.Now() != 5 {
				t.Errorf("past event at %v, want 5", e.Now())
			}
		})
	})
	e.Run()
}

func TestStepAndPending(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() || e.Now() != 1 || e.Pending() != 1 {
		t.Errorf("after one step: now=%v pending=%d", e.Now(), e.Pending())
	}
}

// Schedule runs fn after delay virtual seconds. Negative delays are
// clamped to zero (fire "now", after already-queued events at now).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }
