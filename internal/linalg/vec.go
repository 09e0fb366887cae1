// Package linalg provides the small dense linear-algebra and distance
// kernels used by the MD trajectory analysis algorithms: 3-vector
// arithmetic, frame metrics (dRMS, RMSD with optimal superposition),
// all-pairs distance computation (cdist), and cutoff pair searches.
//
// All kernels operate on slices of Vec3 in double precision, mirroring
// the NumPy/SciPy kernels the paper's Python implementations rely on.
package linalg

import "math"

// Vec3 is a point or displacement in 3-dimensional space.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v[0], s * v[1], s * v[2]} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns the vector product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between points a and b.
func Dist(a, b Vec3) float64 { return math.Sqrt(Dist2(a, b)) }

// Dist2 returns the squared Euclidean distance between points a and b.
func Dist2(a, b Vec3) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	dz := a[2] - b[2]
	return dx*dx + dy*dy + dz*dz
}

// Centroid returns the arithmetic mean of the points.
// It returns the zero vector for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c[0] += p[0]
		c[1] += p[1]
		c[2] += p[2]
	}
	inv := 1 / float64(len(pts))
	return c.Scale(inv)
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

// DRMS computes the paper's per-frame metric dRMS(a, b): the root mean
// square of the Euclidean distances between corresponding points of two
// frames. It does not superimpose the frames first.
//
// DRMS panics if the frames have different lengths; it returns 0 for two
// empty frames.
func DRMS(a, b []Vec3) float64 {
	if len(a) != len(b) {
		panic("linalg: DRMS frames have different lengths")
	}
	if len(a) == 0 {
		return 0
	}
	var sum float64
	for i := range a {
		sum += Dist2(a[i], b[i])
	}
	return math.Sqrt(sum / float64(len(a)))
}
