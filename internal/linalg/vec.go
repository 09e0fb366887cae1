// Package linalg provides the small dense linear-algebra and distance
// kernels used by the MD trajectory analysis algorithms: 3-vector
// arithmetic, the dRMS frame metric, and the cutoff pair searches that
// stand in for SciPy's cdist. All kernels work in double precision,
// mirroring the NumPy/SciPy kernels the paper's Python implementations
// rely on.
//
// dRMS is the PSA kernels' inner loop, and its sum of squares has one
// fixed order on every platform (drms.go): eight lanes, coordinate i in
// lane i mod 8, combined in one tree. DRMS and the bounded DRMSWithin
// share that summation, so a completed bounded evaluation has DRMS's
// bits. On amd64 hosts with AVX2 the summation runs in an assembly
// routine chosen once at init; elsewhere it runs in Go, with every term
// rounded on its own so no compiler may fuse it into an FMA. A result
// therefore does not depend on GOARCH or GOAMD64. Dot and Dist2 round
// every product the same way (float64(x*y)), and so does every other
// data-path product the arm64 compiler would fuse: CI fails on any
// FMADDD/FMSUBD in the arm64 assembly outside the cost-model packages.
package linalg

import (
	"math"
	"unsafe"
)

// Vec3 is a point or displacement in 3-dimensional space.
type Vec3 [3]float64

// Floats views points as their x, y, z components, in place: a Vec3 is
// exactly three packed float64s (TestVec3Layout), and the view covers
// the one allocation v lies in.
func Floats(v []Vec3) []float64 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice(&v[0][0], 3*len(v))
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s*v, each product rounded on its own (an inlined
// Scale must not fuse into its caller's add).
func (v Vec3) Scale(s float64) Vec3 {
	return Vec3{float64(s * v[0]), float64(s * v[1]), float64(s * v[2])}
}

// Dot returns the inner product v·w, each product rounded on its own.
func (v Vec3) Dot(w Vec3) float64 {
	return float64(v[0]*w[0]) + float64(v[1]*w[1]) + float64(v[2]*w[2])
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between points a and b.
func Dist(a, b Vec3) float64 { return math.Sqrt(Dist2(a, b)) }

// Dist2 returns the squared Euclidean distance between points a and b,
// each square rounded on its own.
func Dist2(a, b Vec3) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	dz := a[2] - b[2]
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// BoundingBox returns the axis-aligned bounding box (min, max corners)
// of the points. Both corners are zero for an empty slice.
func BoundingBox(pts []Vec3) (lo, hi Vec3) {
	if len(pts) == 0 {
		return Vec3{}, Vec3{}
	}
	// Six scalars, not two arrays: the compiler keeps them in registers
	// (about twice as fast as indexing lo/hi per axis).
	x0, y0, z0 := pts[0][0], pts[0][1], pts[0][2]
	x1, y1, z1 := x0, y0, z0
	for _, p := range pts[1:] {
		if p[0] < x0 {
			x0 = p[0]
		}
		if p[0] > x1 {
			x1 = p[0]
		}
		if p[1] < y0 {
			y0 = p[1]
		}
		if p[1] > y1 {
			y1 = p[1]
		}
		if p[2] < z0 {
			z0 = p[2]
		}
		if p[2] > z1 {
			z1 = p[2]
		}
	}
	return Vec3{x0, y0, z0}, Vec3{x1, y1, z1}
}
