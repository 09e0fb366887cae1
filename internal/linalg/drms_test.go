package linalg

import (
	"fmt"
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

// drmsWithinPerCoord is the reference DRMSWithin is checked against:
// the lane order of drms.go written the plainest way — lane sums in an
// array, coordinate i added to lane i mod 8 — with the combined sum
// tested against the limit after every coordinate. It returns the
// decision, the completed value, and the index of the coordinate whose
// term first pushed the sum past the limit (−1 when none did).
func drmsWithinPerCoord(a, b []float64, bound float64) (d float64, ok bool, crossed int) {
	n := len(a) / 3
	if n == 0 {
		return 0, true, -1
	}
	limit := drmsLimit(bound, n)
	var s [drmsLanes]float64
	total := 0.0
	for i := range a {
		diff := a[i] - b[i]
		s[i%drmsLanes] += float64(diff * diff)
		total = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
		if total > limit {
			return 0, false, i
		}
	}
	return math.Sqrt(total / float64(n)), true, -1
}

// sameFloat reports whether x and y have the same bits, or are both
// NaN: which NaN payload survives a sum of two NaNs depends on operand
// order, which the Go compiler is free to commute.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkAgainstReference fails unless DRMSWithin, the dispatched
// summation and the generic loop agree with drmsWithinPerCoord on rows
// whose terms are all numbers: the same decision, a completed value
// with the reference's bits, and an abandon at the end of the block
// holding the coordinate that crossed the limit (the row's end, for
// one in the tail). The dispatched summation must also equal the
// generic loop bit for bit.
func checkAgainstReference(t *testing.T, label string, a, b []float64, bound float64) {
	t.Helper()
	got, ok := DRMSWithin(a, b, bound)
	want, wantOK, crossed := drmsWithinPerCoord(a, b, bound)
	if ok != wantOK || !sameFloat(got, want) {
		t.Fatalf("%s: DRMSWithin = (%x, %v), per-coordinate reference = (%x, %v)",
			label, math.Float64bits(got), ok, math.Float64bits(want), wantOK)
	}
	if len(a) == 0 {
		return
	}
	limit := drmsLimit(bound, len(a)/3)
	sum, read := sumSquares(a, b, limit)
	gsum, gread := sumSquaresGeneric(a, b, limit)
	if !sameFloat(sum, gsum) || read != gread {
		t.Fatalf("%s: sumSquares = (%x, %d), generic = (%x, %d)", label, math.Float64bits(sum), read, math.Float64bits(gsum), gread)
	}
	wantRead := len(a)
	if whole := len(a) - len(a)%drmsBlockFloats; crossed >= 0 && crossed < whole {
		wantRead = (crossed/drmsBlockFloats + 1) * drmsBlockFloats
	}
	if read != wantRead {
		t.Fatalf("%s: read %d of %d coordinates, want %d (limit crossed at %d)", label, read, len(a), wantRead, crossed)
	}
}

// The block-checked summation must decide every evaluation the way a
// test after every coordinate does and complete with the reference's
// bits — which are DRMS's — at every atom count around the block size
// and its tail, for bounds on both sides of the true distance and
// inside the slack band around it.
func TestDRMSWithinMatchesPerAtomReference(t *testing.T) {
	r := rand.New(rand.NewPCG(18, 8))
	for n := 0; n <= 200; n++ {
		fa, fb := randFrame(r, n), randFrame(r, n)
		ra, rb := packRows(fa, fb)
		d := DRMS(fa, fb)
		if want, _, _ := drmsWithinPerCoord(ra, rb, math.Inf(1)); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("n=%d: DRMS = %x, per-coordinate reference = %x", n, math.Float64bits(d), math.Float64bits(want))
		}
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
			label := fmt.Sprintf("n=%d bound %s", n, tc.name)
			checkAgainstReference(t, label, ra, rb, tc.bound)
			if _, ok := DRMSWithin(ra, rb, tc.bound); n > 0 && d > 0 && ok != tc.complete {
				t.Fatalf("%s: completed = %v, want %v (d = %v)", label, ok, tc.complete, d)
			}
		}
	}
}

// A DRMSWithin call allocates nothing, on either summation: the
// kernels call it once per frame pair.
func TestDRMSWithinAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	ra, rb := packRows(randFrame(r, 1027), randFrame(r, 1027))
	for _, bound := range []float64{math.Inf(1), 0} {
		if n := testing.AllocsPerRun(100, func() { DRMSWithin(ra, rb, bound) }); n != 0 {
			t.Errorf("bound %v: %v allocations per DRMSWithin call", bound, n)
		}
	}
	limit := drmsLimit(math.Inf(1), 1027)
	if n := testing.AllocsPerRun(100, func() { sumSquaresGeneric(ra, rb, limit) }); n != 0 {
		t.Errorf("%v allocations per generic summation", n)
	}
}

// The special values FuzzDRMSWithin plants in its rows.
var drmsSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1060,
	math.MaxFloat64, -math.MaxFloat64, 1e200, math.Copysign(0, -1),
}

// FuzzDRMSWithin checks the dispatched summation (AVX2 on hosts that
// have it) against the generic loop bit for bit — the sum, so the value
// and the completed/abandoned decision, and the block an evaluation
// abandons at — on rows of 0 to 71 atoms (every tail length), with NaN,
// ±Inf, subnormal and huge coordinates planted, under bounds of +Inf,
// NaN, 0, a negative one, the true distance and one ulp either side of
// it, and arbitrary ones. Rows whose terms are all numbers must also
// match drmsWithinPerCoord.
func FuzzDRMSWithin(f *testing.F) {
	for atoms := range 18 {
		f.Add(uint64(atoms), uint8(atoms), []byte{}, uint8(atoms), 1.0)
	}
	f.Add(uint64(1), uint8(64), []byte{3, 0, 70, 1}, uint8(4), 0.5)
	f.Add(uint64(2), uint8(9), []byte{0, 1}, uint8(3), -1.0)
	f.Fuzz(func(t *testing.T, seed uint64, atoms uint8, plant []byte, boundKind uint8, raw float64) {
		n := int(atoms) % 72
		r := rand.New(rand.NewPCG(seed, 52))
		scale := math.Ldexp(1, r.IntN(40)-20)
		a, b := make([]float64, 3*n), make([]float64, 3*n)
		for i := range a {
			a[i], b[i] = scale*r.NormFloat64(), scale*r.NormFloat64()
		}
		// Each byte pair plants one special value: the first byte picks
		// the coordinate and the row, the second the value.
		for i := 0; i+1 < len(plant) && n > 0; i += 2 {
			row := a
			if plant[i]&1 == 1 {
				row = b
			}
			row[int(plant[i]>>1)%len(row)] = drmsSpecials[int(plant[i+1])%len(drmsSpecials)]
		}
		d, _ := DRMSWithin(a, b, math.Inf(1))
		var bound float64
		switch boundKind % 8 {
		case 0:
			bound = math.Inf(1)
		case 1:
			bound = math.NaN()
		case 2:
			bound = 0
		case 3:
			bound = -math.Abs(raw)
		case 4:
			bound = d
		case 5:
			bound = math.Nextafter(d, math.Inf(1))
		case 6:
			bound = math.Nextafter(d, math.Inf(-1))
		default:
			bound = raw
		}
		if all, _, _ := drmsWithinPerCoord(a, b, math.Inf(1)); !math.IsNaN(all) {
			checkAgainstReference(t, "fuzz", a, b, bound)
			return
		}
		if n == 0 {
			return
		}
		limit := drmsLimit(bound, n)
		sum, read := sumSquares(a, b, limit)
		gsum, gread := sumSquaresGeneric(a, b, limit)
		if !sameFloat(sum, gsum) || read != gread {
			t.Fatalf("sumSquares = (%x, %d), generic = (%x, %d)", math.Float64bits(sum), read, math.Float64bits(gsum), gread)
		}
	})
}

// BenchmarkDRMSWithin times one evaluation of two 1024-atom rows that
// completes (bound +Inf) on each summation this host runs; ns/atom is
// the figure docs/kernels.md quotes.
func BenchmarkDRMSWithin(b *testing.B) {
	r := rand.New(rand.NewPCG(10, 24))
	const atoms = 1024
	ra, rb := packRows(randFrame(r, atoms), randFrame(r, atoms))
	limit := drmsLimit(math.Inf(1), atoms)
	type path struct {
		name string
		sum  func(a, b []float64, limit float64) (float64, int)
	}
	paths := []path{{"generic", sumSquaresGeneric}}
	if useAVX2 {
		paths = append(paths, path{"avx2", sumSquares})
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				s, _ := p.sum(ra, rb, limit)
				sink += s
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/atoms, "ns/atom")
			if math.IsNaN(sink) {
				b.Fatal("NaN sum")
			}
		})
	}
}
