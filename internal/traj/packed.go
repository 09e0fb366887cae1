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
// comparison; the coordinates are the trajectory's own backing when it
// has one (see Pack), so packing adds no second copy of them.
type Packed struct {
	NAtoms  int
	NFrames int
	// Coords holds the frames back to back: frame i occupies
	// Coords[i*NAtoms*3 : (i+1)*NAtoms*3] as x,y,z triples in atom order.
	// It may share memory with the packed trajectory's frames.
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

// PackFrames builds the packed representation of raw frame views,
// copying their coordinates. All frames must have nAtoms coordinates.
func PackFrames(frames [][]linalg.Vec3, nAtoms int) *Packed {
	w3 := nAtoms * 3
	coords := make([]float64, len(frames)*w3)
	for i, f := range frames {
		packRow(coords[i*w3:(i+1)*w3], f)
	}
	return packCoords(coords, nAtoms, len(frames))
}

// packCoords wraps nf frames of packed coordinates (kept, not copied)
// with their per-frame statistics.
func packCoords(coords []float64, nAtoms, nf int) *Packed {
	p := &Packed{
		NAtoms:    nAtoms,
		NFrames:   nf,
		Coords:    coords,
		Centroids: make([]linalg.Vec3, nf),
		RadGyr:    make([]float64, nf),
		StepDRMS:  make([]float64, nf),
	}
	for i := range nf {
		row := p.Row(i)
		p.Centroids[i], p.RadGyr[i] = rowStats(row)
		if i > 0 {
			d, _ := linalg.DRMSWithin(p.Row(i-1), row, math.Inf(1))
			p.StepDRMS[i] = d
		}
	}
	return p
}

// packRow flattens one frame's coordinates into a packed row of xyz
// triples (len(row) = 3·len(coords)).
func packRow(row []float64, coords []linalg.Vec3) {
	for j, pt := range coords {
		row[j*3], row[j*3+1], row[j*3+2] = pt[0], pt[1], pt[2]
	}
}

// Pack builds the packed representation of a trajectory. A trajectory
// from Alloc whose frames are all still their slices of its backing, in
// order, is packed in place: Coords is that backing viewed as float64s,
// and only the per-frame statistics are computed. Any other trajectory
// is copied (PackFrames).
func Pack(t *Trajectory) *Packed {
	if coords, ok := t.inPlace(); ok {
		return packCoords(coords, t.NAtoms, len(t.Frames))
	}
	frames := make([][]linalg.Vec3, len(t.Frames))
	for i := range t.Frames {
		frames[i] = t.Frames[i].Coords
	}
	return PackFrames(frames, t.NAtoms)
}

// inPlace returns the trajectory's coordinates as packed rows without
// copying them, when frame i is exactly backing[i·NAtoms : (i+1)·NAtoms]
// for every i. Pointer identity of each frame's first atom proves it:
// the backing is one allocation, so the view never spans two.
func (t *Trajectory) inPlace() ([]float64, bool) {
	n := t.NAtoms
	if len(t.backing) == 0 || len(t.backing) != n*len(t.Frames) {
		return nil, false
	}
	for i, f := range t.Frames {
		if len(f.Coords) != n || &f.Coords[0] != &t.backing[i*n] {
			return nil, false
		}
	}
	return vec3Floats(t.backing), true
}

// Packed returns the trajectory's packed representation, computing it on
// first use and caching it. The cache is safe for concurrent use (racing
// callers at worst pack twice) and is invalidated when the frame count
// changes. The packed coordinates may be the frames' own memory (see
// Pack), so mutating frame coordinates in place after the first call is
// not supported.
func (t *Trajectory) Packed() *Packed {
	if p := t.packed.Load(); p != nil && p.NFrames == len(t.Frames) {
		return p
	}
	p := Pack(t)
	t.packed.Store(p)
	return p
}

// IsPacked reports whether the packed representation is already cached,
// so a call to Packed costs nothing: how tests assert that a runner
// packed up front rather than inside its first timed tasks.
func (t *Trajectory) IsPacked() bool {
	p := t.packed.Load()
	return p != nil && p.NFrames == len(t.Frames)
}
