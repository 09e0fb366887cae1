// Package sim provides a small discrete-event simulation core: a virtual
// clock and an event queue. Only tests import it: the cluster tests
// build on it the event-driven reference (Simulate) that the analytic
// cluster.Estimate is checked against. Nothing in this package knows
// about clusters or tasks.
package sim

import "container/heap"

// Time is virtual time in seconds.
type Time float64

// event is a scheduled callback. Seq breaks ties so that events
// scheduled at the same instant fire in scheduling order.
type event struct {
	at  Time
	seq int64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulation engine. The zero value is ready
// to use at time zero.
type Engine struct {
	now   Time
	queue eventQueue
	seq   int64
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At runs fn at absolute virtual time t; times in the past are clamped
// to now.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, event{at: t, seq: e.seq, fn: fn})
}

// Step fires the next event and reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}
