package traj

import (
	"math"
	"sync/atomic"

	"mdtask/internal/balltree"
	"mdtask/internal/linalg"
)

// Packed is the contiguous, precomputed frame representation the pruned
// Hausdorff kernel consumes: every frame's coordinates as one
// cache-friendly []float64 (frame-major, xyz triples), plus the
// per-frame statistics the kernel's pruning bounds need — centroids,
// radii of gyration, and the dRMS between consecutive frames. The
// statistics are computed once per trajectory in O(frames·atoms)
// instead of being re-derived inside every O(frames²) trajectory
// comparison; the coordinates are the trajectory's own backing (see
// Pack), so packing adds no second copy of them.
type Packed struct {
	NAtoms  int
	NFrames int
	// Coords holds the frames back to back: frame i occupies
	// Coords[i*NAtoms*3 : (i+1)*NAtoms*3] as x,y,z triples in atom order.
	// It is the packed trajectory's Coords, viewed in place.
	Coords []float64
	// Centroids[i] is the arithmetic-mean position of frame i.
	Centroids []linalg.Vec3
	// RadGyr[i] is the radius of gyration of frame i about its centroid:
	// sqrt(mean |xⱼ − centroid|²).
	RadGyr []float64
	// StepDRMS[i] is dRMS(frame i−1, frame i), with StepDRMS[0] = 0: the
	// temporal-coherence Lipschitz constants the pruned kernel chains
	// through the dRMS triangle inequality.
	StepDRMS []float64

	// tree caches the ball tree over the frames' (centroid, rg)
	// signatures, built on first use by FrameTree(). Like the packed
	// cache on Trajectory, racing callers at worst build twice.
	tree atomic.Pointer[balltree.FrameTree]
}

// FrameTree returns the ball tree over the packed frames' 4-D
// signatures (centroid x, y, z, radius of gyration) — the metric index
// the indexed Hausdorff kernel descends. It is built from the already
// computed per-frame statistics in O(frames · log frames) on first use
// and cached; windows carry their own Packed, so streamed tiles get
// window-local trees with no extra residency.
func (p *Packed) FrameTree() *balltree.FrameTree {
	if t := p.tree.Load(); t != nil {
		return t
	}
	pts := make([]balltree.Point4, p.NFrames)
	for i := range pts {
		c := p.Centroids[i]
		pts[i] = balltree.Point4{c[0], c[1], c[2], p.RadGyr[i]}
	}
	t := balltree.NewFrameTree(pts, 0)
	p.tree.Store(t)
	return t
}

// Row returns frame i's packed coordinate row (shared, not copied).
func (p *Packed) Row(i int) []float64 {
	w := p.NAtoms * 3
	return p.Coords[i*w : (i+1)*w]
}

// Pack builds the packed representation of a trajectory: Coords is the
// trajectory's own backing viewed as float64s, never a copy, and only
// the per-frame statistics are computed. Each frame's centroid and
// radius of gyration are linalg.FrameStats of its row, as a window
// decode and a digest's sketch compute them, so a window's statistics
// are bit-identical to the packed trajectory's.
func Pack(t *Trajectory) *Packed {
	nf := t.NFrames()
	p := &Packed{
		NAtoms:    t.NAtoms,
		NFrames:   nf,
		Coords:    linalg.Floats(t.Coords),
		Centroids: make([]linalg.Vec3, nf),
		RadGyr:    make([]float64, nf),
		StepDRMS:  make([]float64, nf),
	}
	for i := range nf {
		row := p.Row(i)
		p.Centroids[i], p.RadGyr[i] = linalg.FrameStats(row)
		if i > 0 {
			d, _ := linalg.DRMSWithin(p.Row(i-1), row, math.Inf(1))
			p.StepDRMS[i] = d
		}
	}
	return p
}

// Packed returns the trajectory's packed representation, computing it on
// first use and caching it. The cache is safe for concurrent use (racing
// callers at worst pack twice) and is invalidated when the frame count
// changes. The packed coordinates are the trajectory's own memory (see
// Pack), so mutating coordinates in place after the first call is not
// supported.
func (t *Trajectory) Packed() *Packed {
	if p := t.packed.Load(); p != nil && p.NFrames == t.NFrames() {
		return p
	}
	p := Pack(t)
	t.packed.Store(p)
	return p
}

// IsPacked reports whether the packed representation is already cached,
// so a call to Packed costs nothing: how tests assert that loading an
// input packed it, so that no timed task does.
func (t *Trajectory) IsPacked() bool {
	p := t.packed.Load()
	return p != nil && p.NFrames == t.NFrames()
}
