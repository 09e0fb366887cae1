package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
)

// rotZ returns the rotation matrix about the z axis by theta.
func rotZ(theta float64) [3][3]float64 {
	c, s := math.Cos(theta), math.Sin(theta)
	return [3][3]float64{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
}

// rotateFrame applies the rotation matrix m to every point of frame in
// place.
func rotateFrame(frame []Vec3, m [3][3]float64) {
	for i, p := range frame {
		frame[i] = Vec3{
			m[0][0]*p[0] + m[0][1]*p[1] + m[0][2]*p[2],
			m[1][0]*p[0] + m[1][1]*p[1] + m[1][2]*p[2],
			m[2][0]*p[0] + m[2][1]*p[1] + m[2][2]*p[2],
		}
	}
}

func TestRMSDIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	a := randFrame(r, 30)
	if got := RMSD(a, a); got > 1e-9 {
		t.Errorf("RMSD(a,a) = %v, want ~0", got)
	}
}

func TestRMSDInvariantUnderRigidMotion(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	a := randFrame(r, 40)
	b := make([]Vec3, len(a))
	copy(b, a)
	rotateFrame(b, rotZ(0.7))
	for i := range b {
		b[i] = b[i].Add(Vec3{5, -3, 2})
	}
	// Superposition should recover the rigid motion exactly.
	if got := RMSD(a, b); got > 1e-8 {
		t.Errorf("RMSD after rigid motion = %v, want ~0", got)
	}
}

func TestRMSDUpperBoundedByDRMS(t *testing.T) {
	// Optimal superposition can only reduce the deviation relative to
	// the unaligned dRMS of centered frames.
	r := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 100; trial++ {
		n := 3 + r.IntN(30)
		a, b := randFrame(r, n), randFrame(r, n)
		ca := make([]Vec3, n)
		cb := make([]Vec3, n)
		copy(ca, a)
		copy(cb, b)
		Center(ca)
		Center(cb)
		if RMSD(a, b) > DRMS(ca, cb)+1e-9 {
			t.Fatalf("RMSD %v exceeds centered dRMS %v", RMSD(a, b), DRMS(ca, cb))
		}
	}
}

func TestRMSDSymmetric(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.IntN(20)
		a, b := randFrame(r, n), randFrame(r, n)
		if d1, d2 := RMSD(a, b), RMSD(b, a); !almostEqual(d1, d2, 1e-9) {
			t.Fatalf("RMSD not symmetric: %v vs %v", d1, d2)
		}
	}
}

func TestRMSDKnownValue(t *testing.T) {
	// Two points on the x axis vs two points on the y axis: after
	// rotation they superpose exactly.
	a := []Vec3{{1, 0, 0}, {-1, 0, 0}}
	b := []Vec3{{0, 1, 0}, {0, -1, 0}}
	if got := RMSD(a, b); got > 1e-9 {
		t.Errorf("RMSD = %v, want 0 (rotation)", got)
	}
	// Different radii cannot superpose: residual is |2-1| per point.
	c := []Vec3{{2, 0, 0}, {-2, 0, 0}}
	if got := RMSD(a, c); !almostEqual(got, 1, 1e-9) {
		t.Errorf("RMSD = %v, want 1", got)
	}
}

func TestRMSDEmptyAndMismatch(t *testing.T) {
	if got := RMSD(nil, nil); got != 0 {
		t.Errorf("RMSD(empty) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RMSD did not panic on mismatch")
		}
	}()
	RMSD(make([]Vec3, 1), make([]Vec3, 2))
}

func TestMaxEigen4Diagonal(t *testing.T) {
	m := [4][4]float64{{1, 0, 0, 0}, {0, 7, 0, 0}, {0, 0, 3, 0}, {0, 0, 0, -2}}
	if got := maxEigen4(m); !almostEqual(got, 7, 1e-12) {
		t.Errorf("maxEigen4 = %v, want 7", got)
	}
}
