package linalg

import (
	"math"
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecOps(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Norm2(); got != 14 {
		t.Errorf("Norm2 = %v", got)
	}
	if !almostEqual(v.Norm(), math.Sqrt(14), 1e-15) {
		t.Errorf("Norm = %v", v.Norm())
	}
}

// boundedVecs makes testing/quick generate Vec3 values with components
// in [-100, 100] so products do not overflow.
func boundedVecs(seed uint64) *quick.Config {
	r := rand.New(rand.NewPCG(seed, seed+1))
	return &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, _ *mathrand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(Vec3{
					r.Float64()*200 - 100,
					r.Float64()*200 - 100,
					r.Float64()*200 - 100,
				})
			}
		},
	}
}

func TestDist(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{3, 4, 0}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Dist2(a, b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
}

func TestDistSymmetricQuick(t *testing.T) {
	f := func(a, b Vec3) bool { return Dist(a, b) == Dist(b, a) && Dist(a, a) == 0 }
	if err := quick.Check(f, boundedVecs(19)); err != nil {
		t.Error(err)
	}
}

func TestCentroidAndCenter(t *testing.T) {
	pts := []Vec3{{1, 2, 3}, {3, 2, 1}, {2, 2, 2}}
	c := Centroid(pts)
	if c != (Vec3{2, 2, 2}) {
		t.Fatalf("Centroid = %v", c)
	}
	removed := Center(pts)
	if removed != c {
		t.Errorf("Center returned %v, want %v", removed, c)
	}
	after := Centroid(pts)
	if after.Norm() > 1e-14 {
		t.Errorf("centroid after centering = %v, want ~0", after)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if got := Centroid(nil); got != (Vec3{}) {
		t.Errorf("Centroid(nil) = %v", got)
	}
}

func TestBoundingBox(t *testing.T) {
	lo, hi := BoundingBox([]Vec3{{1, 5, -2}, {-1, 3, 4}, {0, 9, 0}})
	if lo != (Vec3{-1, 3, -2}) || hi != (Vec3{1, 9, 4}) {
		t.Errorf("BoundingBox = %v, %v", lo, hi)
	}
	lo, hi = BoundingBox(nil)
	if lo != (Vec3{}) || hi != (Vec3{}) {
		t.Errorf("BoundingBox(nil) = %v, %v", lo, hi)
	}
}

func randFrame(r *rand.Rand, n int) []Vec3 {
	out := make([]Vec3, n)
	for i := range out {
		out[i] = Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	}
	return out
}

func TestDRMSBasics(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	a := randFrame(r, 50)
	if got := DRMS(a, a); got != 0 {
		t.Errorf("DRMS(a,a) = %v, want 0", got)
	}
	b := make([]Vec3, len(a))
	for i := range b {
		b[i] = a[i].Add(Vec3{1, 0, 0})
	}
	if got := DRMS(a, b); !almostEqual(got, 1, 1e-12) {
		t.Errorf("DRMS of unit translation = %v, want 1", got)
	}
	if got := DRMS(nil, nil); got != 0 {
		t.Errorf("DRMS(empty) = %v", got)
	}
}

func TestDRMSPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DRMS did not panic on length mismatch")
		}
	}()
	DRMS(make([]Vec3, 2), make([]Vec3, 3))
}

// DRMS is a metric on fixed-length frames: symmetric, non-negative, and
// satisfies the triangle inequality (it is the L2 norm of the
// concatenated coordinates scaled by 1/sqrt(n)).
func TestDRMSMetricQuick(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(20)
		a, b, c := randFrame(r, n), randFrame(r, n), randFrame(r, n)
		dab, dba := DRMS(a, b), DRMS(b, a)
		if dab != dba {
			t.Fatalf("not symmetric: %v vs %v", dab, dba)
		}
		if dab < 0 {
			t.Fatalf("negative DRMS %v", dab)
		}
		dac, dcb := DRMS(a, c), DRMS(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle violated: d(a,b)=%v > d(a,c)+d(c,b)=%v", dab, dac+dcb)
		}
	}
}

// Center translates the points so their centroid is at the origin,
// in place, and returns the centroid that was removed.
func Center(pts []Vec3) Vec3 {
	c := Centroid(pts)
	for i := range pts {
		pts[i] = pts[i].Sub(c)
	}
	return c
}
