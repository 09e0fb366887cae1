package jobs

import (
	"slices"
	"sync"
	"sync/atomic"

	"mdtask/internal/linalg"
)

// backingPool is the coordinate memory of the inputs a scheduler
// generates, kept between jobs. A generated member takes a backing of
// its exact length at submission and its job gives the input's backings
// back when it drops the input, so a member is written into memory that
// is already mapped, instead of a fresh allocation the runtime must
// zero and later collect. That pays only when a job's members have the
// length an earlier job's members had: a stream of jobs of one shape,
// as each synth workload of the service benchmark is, reuses every
// member after the first jobs'. The /metrics counters
// mdtask_jobs_input_backings_{reused,allocated}_total show the share.
//
// Lengths are exact, never rounded up into classes, so a backing is
// never larger than what it holds. The free list keeps what is left of
// the keep inputs given back last, and drops the rest for the
// collector. The scheduler sets keep to its worker count, the number of
// jobs that run at once: the pool then holds no more coordinate memory
// than its running jobs held, and that is what the next keep jobs of
// those shapes need. A member whose length no kept backing has empties
// the free list, so when the shape changes from job to job the pool
// holds nothing past the next submission: kept memory is live to the
// collector, and unused it would only raise the heap goal.
type backingPool struct {
	keep int // inputs kept; 0 keeps none

	mu   sync.Mutex
	free []backingGroup // oldest first, none empty

	reused, allocated atomic.Int64
}

// backingGroup is what is left of one input given back: backings that
// all hold n positions (a generated ensemble's members share a shape).
type backingGroup struct {
	n  int
	bs [][]linalg.Vec3
}

// take returns a backing of exactly n positions: one of the newest
// input given back with members of that length, or else a fresh one,
// and then the free list is emptied. A reused backing holds whatever
// its last input left there; the generators write every position. A nil
// pool always allocates.
func (p *backingPool) take(n int) []linalg.Vec3 {
	if p == nil {
		return make([]linalg.Vec3, n)
	}
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if g := &p.free[i]; g.n == n {
			b := g.bs[len(g.bs)-1]
			g.bs = g.bs[:len(g.bs)-1]
			if len(g.bs) == 0 {
				p.free = slices.Delete(p.free, i, i+1)
			}
			p.mu.Unlock()
			p.reused.Add(1)
			return b
		}
	}
	// No input given back has this length: the traffic's shape has
	// changed, and what the free list holds would only be kept live
	// (and so grow the collector's heap goal) until keep newer inputs
	// push it out.
	p.free = nil
	p.mu.Unlock()
	p.allocated.Add(1)
	return make([]linalg.Vec3, n)
}

// give puts one input's backings, which nothing reads any more, on the
// free list, and drops the oldest input's past keep. Empty backings,
// and any of another length than the first non-empty one, are dropped.
// A nil pool keeps nothing.
func (p *backingPool) give(bs [][]linalg.Vec3) {
	if p == nil || p.keep < 1 {
		return
	}
	g := backingGroup{}
	for _, b := range bs {
		if g.n == 0 {
			g.n = len(b)
		}
		if len(b) > 0 && len(b) == g.n {
			g.bs = append(g.bs, b)
		}
	}
	if len(g.bs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, g)
	if over := len(p.free) - p.keep; over > 0 {
		p.free = slices.Delete(p.free, 0, over)
	}
}
