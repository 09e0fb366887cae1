package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

// packRows flattens two frames into packed rows.
func packRows(a, b []Vec3) (ra, rb []float64) {
	ra = make([]float64, 0, len(a)*3)
	rb = make([]float64, 0, len(b)*3)
	for _, p := range a {
		ra = append(ra, p[0], p[1], p[2])
	}
	for _, p := range b {
		rb = append(rb, p[0], p[1], p[2])
	}
	return ra, rb
}

// A completed DRMSWithin evaluation must reproduce DRMS bit for bit —
// the property the pruned Hausdorff kernel's exactness rests on.
func TestDRMSWithinMatchesDRMSBitwise(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 14))
	for trial := 0; trial < 200; trial++ {
		n := r.IntN(40)
		fa, fb := randFrame(r, n), randFrame(r, n)
		ra, rb := packRows(fa, fb)
		want := DRMS(fa, fb)
		got, ok := DRMSWithin(ra, rb, math.Inf(1))
		if !ok {
			t.Fatalf("infinite bound abandoned (n=%d)", n)
		}
		if got != want {
			t.Fatalf("DRMSWithin = %x, DRMS = %x (n=%d)", got, want, n)
		}
		// A bound just above the true value must also complete exactly.
		got, ok = DRMSWithin(ra, rb, math.Nextafter(want, math.Inf(1)))
		if n > 0 && (!ok || got != want) {
			t.Fatalf("tight bound: got %v ok=%v, want %v", got, ok, want)
		}
	}
}

func TestDRMSWithinAbandons(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 1))
	fa, fb := randFrame(r, 64), randFrame(r, 64)
	ra, rb := packRows(fa, fb)
	d := DRMS(fa, fb)
	if _, ok := DRMSWithin(ra, rb, d/2); ok {
		t.Error("bound of d/2 did not abandon")
	}
	// Bound zero abandons any pair with a positive distance.
	if _, ok := DRMSWithin(ra, rb, 0); ok {
		t.Error("zero bound did not abandon")
	}
	// ... but identical rows complete at distance 0 even under bound 0.
	if got, ok := DRMSWithin(ra, ra, 0); !ok || got != 0 {
		t.Errorf("identical rows under zero bound: %v, %v", got, ok)
	}
}

func TestDRMSWithinEdges(t *testing.T) {
	if d, ok := DRMSWithin(nil, nil, 0); !ok || d != 0 {
		t.Errorf("empty rows: %v, %v", d, ok)
	}
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("length mismatch", func() { DRMSWithin(make([]float64, 3), make([]float64, 6), 1) })
	assertPanics("partial triple", func() { DRMSWithin(make([]float64, 4), make([]float64, 4), 1) })
}

// drmsWithinPerAtom is the reference DRMSWithin is checked against: the
// same threshold, tested after every atom, each term routed through
// Dist2 exactly as DRMS routes it.
func drmsWithinPerAtom(a, b []float64, bound float64) (float64, bool) {
	n := len(a) / 3
	if n == 0 {
		return 0, true
	}
	limit := bound * bound * float64(n)
	limit += limit * drmsBoundSlack
	if math.IsNaN(limit) {
		limit = math.Inf(1)
	}
	var sum float64
	for i := 0; i < len(a); i += 3 {
		sum += Dist2(Vec3{a[i], a[i+1], a[i+2]}, Vec3{b[i], b[i+1], b[i+2]})
		if sum > limit {
			return 0, false
		}
	}
	return math.Sqrt(sum / float64(n)), true
}

// The block-checked loop must decide every evaluation the way a test
// per atom does and complete with DRMS's bits, at every atom count
// around the block size and its tail, for bounds on both sides of the
// true distance and inside the slack band around it.
func TestDRMSWithinMatchesPerAtomReference(t *testing.T) {
	r := rand.New(rand.NewPCG(18, 8))
	for n := 0; n <= 200; n++ {
		fa, fb := randFrame(r, n), randFrame(r, n)
		ra, rb := packRows(fa, fb)
		d := DRMS(fa, fb)
		bounds := []struct {
			name     string
			bound    float64
			complete bool // what the bound must do to a pair at distance d > 0
		}{
			{"+Inf", math.Inf(1), true},
			{"NaN", math.NaN(), true},
			{"far above", 1e6 * (d + 1), true},
			{"just above", math.Nextafter(d, math.Inf(1)), true},
			{"exactly at", d, true},
			{"just below", math.Nextafter(d, 0), true}, // inside the slack band
			{"below the slack", d * (1 - 1e-6), false},
			{"half", d / 2, false},
			{"0", 0, false},
		}
		for _, tc := range bounds {
			got, ok := DRMSWithin(ra, rb, tc.bound)
			want, wantOK := drmsWithinPerAtom(ra, rb, tc.bound)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d bound %s: DRMSWithin = (%x, %v), per-atom reference = (%x, %v)",
					n, tc.name, got, ok, want, wantOK)
			}
			if ok && math.Float64bits(got) != math.Float64bits(d) {
				t.Fatalf("n=%d bound %s: completed with %x, DRMS = %x", n, tc.name, got, d)
			}
			if n > 0 && d > 0 && ok != tc.complete {
				t.Fatalf("n=%d bound %s: completed = %v, want %v (d = %v)", n, tc.name, ok, tc.complete, d)
			}
		}
	}
}
