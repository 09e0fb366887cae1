package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// referenceBucket is the O(n) specification bucketOf must match:
// the first bucket whose inclusive upper bound admits v.
func referenceBucket(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

func TestBucketBoundariesExactAndAdjacent(t *testing.T) {
	for i, b := range DefBuckets {
		// A value exactly on a bound lands in that bucket (le-semantics)…
		if got := bucketOf(b); got != i {
			t.Errorf("bucketOf(%g) = %d, want %d (bounds are inclusive)", b, got, i)
		}
		// …and the next representable value above it lands one bucket up.
		above := math.Nextafter(b, math.Inf(1))
		if got := bucketOf(above); got != i+1 {
			t.Errorf("bucketOf(%g) = %d, want %d", above, got, i+1)
		}
	}
	if got := bucketOf(math.Inf(1)); got != len(DefBuckets) {
		t.Errorf("bucketOf(+Inf) = %d, want the overflow bucket %d", got, len(DefBuckets))
	}
}

func TestBucketOfMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// Log-uniform over (~1e-5, ~1e3) to hit every bucket region.
		v := math.Exp(rng.Float64()*18 - 11)
		if got, want := bucketOf(v), referenceBucket(DefBuckets, v); got != want {
			t.Fatalf("bucketOf(%g) = %d, reference says %d", v, got, want)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	const goroutines, perG = 16, 2000
	h := NewHistogram()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				// 0.25 is exactly representable, so the expected sum below
				// is float-exact even across interleaved CAS updates.
				h.Observe(0.25)
				_ = rng
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("lost observations under concurrency: count %d, want %d", s.Count, goroutines*perG)
	}
	if want := 0.25 * goroutines * perG; s.Sum != want {
		t.Fatalf("sum %g, want %g", s.Sum, want)
	}
	var inBuckets int64
	for _, c := range s.Counts {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket counts sum to %d, count says %d", inBuckets, s.Count)
	}
}

func TestNilHistogramNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if s := h.Snapshot(); s.Count != 0 || s.Counts != nil {
		t.Errorf("nil histogram snapshot = %+v, want empty", s)
	}
}

// TestDefBucketsStrictlyIncreasing guards bucketOf's binary search:
// it finds the first admitting bound only over strictly increasing
// bounds.
func TestDefBucketsStrictlyIncreasing(t *testing.T) {
	for i := 1; i < len(DefBuckets); i++ {
		if DefBuckets[i] <= DefBuckets[i-1] {
			t.Fatalf("DefBuckets[%d] = %g does not exceed DefBuckets[%d] = %g", i, DefBuckets[i], i-1, DefBuckets[i-1])
		}
	}
}
