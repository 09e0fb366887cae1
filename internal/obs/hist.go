package obs

import (
	"math"
	"sync/atomic"
)

// DefBuckets are the latency bucket upper bounds, in seconds, of every
// histogram: exponential from 500µs to 60s, sized for the spread
// between a cache hit (~µs), a block kernel (ms–s), and a whole fleet
// job (s–min). The terminal +Inf bucket is implicit.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram over DefBuckets, safe for
// lock-free concurrent Observe. Bucket i counts observations v <=
// DefBuckets[i] (cumulative counts are computed at snapshot time, not
// stored); the last bucket is the implicit +Inf. A nil *Histogram
// no-ops, so optional instrumentation hooks cost one nil check when
// unset.
type Histogram struct {
	counts []atomic.Int64 // len(DefBuckets)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// NewHistogram returns an empty histogram over DefBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(DefBuckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucketOf returns the index of the bucket v falls in: the first
// bucket whose upper bound is >= v (bounds are inclusive upper
// limits, matching Prometheus `le`).
func bucketOf(v float64) int {
	lo, hi := 0, len(DefBuckets)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= DefBuckets[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds; the +Inf bucket is Counts[len(Bounds)]
	Counts []int64   // per-bucket (non-cumulative) counts
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may land between the per-bucket reads — totals are re-derived from
// the buckets so the snapshot is always internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: DefBuckets,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}
