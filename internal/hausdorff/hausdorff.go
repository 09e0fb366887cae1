// Package hausdorff implements the Hausdorff distance between MD
// trajectories (the paper's Algorithm 1) with the dRMS frame metric,
// in four exact kernels that all produce bit-identical matrices: the
// naive full scan, the early-break optimization of Taha & Hanbury that
// the paper cites as the known sequential speedup, a pruned kernel
// combining exact centroid/radius-of-gyration lower bounds with
// bounded-dRMS early-abandon (pruned.go), and an indexed kernel
// answering each row's min by best-first descent over a ball tree of
// 4-D frame signatures (indexed.go, balltree.FrameTree). The package
// also carries the streamed out-of-core fold (streamed.go), the
// frame-pair and tree-node Counters every engine reports, and the
// 2D-RMSD matrix variant computed by CPPTraj (Algorithm 1 with no
// min–max reduction). The full kernel-method contract — bounds, slack
// discipline, counter invariants — is docs/kernels.md.
package hausdorff

import (
	"fmt"
	"math"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// Method selects the Hausdorff inner-loop algorithm. All methods are
// exact: they produce bit-identical distances.
type Method int

const (
	// Naive computes every frame-pair distance (the paper's Algorithm 1).
	Naive Method = iota
	// EarlyBreak aborts the inner scan as soon as a frame distance drops
	// below the running maximum (Taha & Hanbury 2015). Like Pruned and
	// Indexed it keeps one running maximum across the two directed
	// passes of the symmetric distance: the reverse pass starts from the
	// forward pass's result.
	EarlyBreak
	// Pruned adds O(1) frame-pair pruning on top of EarlyBreak: the exact
	// centroid/radius-of-gyration lower bound skips whole pairs, dRMS
	// evaluations early-abandon once their partial sum exceeds the
	// running minimum, and the inner scan starts at the previous outer
	// frame's argmin to exploit the temporal coherence of MD
	// trajectories. It operates on the packed representation of
	// traj.Packed.
	Pruned
	// Indexed replaces Pruned's O(frames) inner scan with a best-first
	// ball-tree descent: each trajectory's frames are indexed once by
	// their (centroid, rg) signatures (balltree.FrameTree, cached on
	// traj.Packed), and the same exact centroid/rg lower bound that
	// Pruned applies per pair is aggregated into per-node bounds, so one
	// comparison dismisses a whole subtree. Leaves early-abandon through
	// linalg.DRMSWithin seeded with the running best, warm-started from
	// the previous row's argmin. Sub-quadratic in frames whenever the
	// bound separates candidates; degrades to Pruned-like behaviour plus
	// O(log frames) node checks otherwise.
	Indexed
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case EarlyBreak:
		return "early-break"
	case Pruned:
		return "pruned"
	case Indexed:
		return "indexed"
	default:
		return "unknown"
	}
}

// ParseMethod canonicalizes a method name ("" defaults to naive).
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "naive":
		return Naive, nil
	case "early-break":
		return EarlyBreak, nil
	case "pruned":
		return Pruned, nil
	case "indexed":
		return Indexed, nil
	default:
		return 0, fmt.Errorf("hausdorff: unknown method %q (want naive|early-break|pruned|indexed)", s)
	}
}

// Methods lists every kernel method.
var Methods = []Method{Naive, EarlyBreak, Pruned, Indexed}

// Counters tallies the frame-pair work of one or more kernel
// invocations. Every frame pair a directed scan considers lands in
// exactly one bucket, so for non-empty inputs
// Evaluated + Pruned + Abandoned equals the directed pair count
// (2·|A|·|B| for the symmetric distance). The zero value is ready to
// use; methods are nil-safe so callers that don't account can pass nil.
// A Counters is not safe for concurrent use — accumulate per task and
// merge (see engine.Metrics.AddPairs for the concurrent aggregate).
type Counters struct {
	// Evaluated counts dRMS evaluations run to completion over all atoms.
	Evaluated int64
	// Pruned counts frame pairs dismissed in O(1), without touching any
	// atom: skipped by the centroid/radius-of-gyration lower bound, by
	// the temporal-coherence row bound, or by the early-break row cut.
	Pruned int64
	// Abandoned counts dRMS evaluations abandoned mid-sum once the
	// partial sum proved the pair could not lower the running minimum.
	Abandoned int64

	// NodesVisited and NodesPruned account the indexed kernel's
	// ball-tree descents, on top of (never instead of) the frame-pair
	// buckets above: a visited node was expanded (children pushed, or
	// its leaf frames settled pair by pair), a pruned node was dismissed
	// whole by its aggregate lower bound — its member pairs land in
	// Pruned. Both stay zero for the flat methods, and
	// Evaluated + Pruned + Abandoned still equals the scheduled directed
	// pair total whatever the method.
	NodesVisited int64
	NodesPruned  int64
}

// Add folds another tally into c.
func (c *Counters) Add(o Counters) {
	if c == nil {
		return
	}
	c.Evaluated += o.Evaluated
	c.Pruned += o.Pruned
	c.Abandoned += o.Abandoned
	c.NodesVisited += o.NodesVisited
	c.NodesPruned += o.NodesPruned
}

// Total returns the number of frame pairs accounted.
func (c Counters) Total() int64 { return c.Evaluated + c.Pruned + c.Abandoned }

func (c *Counters) eval() {
	if c != nil {
		c.Evaluated++
	}
}

func (c *Counters) prune(n int64) {
	if c != nil {
		c.Pruned += n
	}
}

func (c *Counters) abandon() {
	if c != nil {
		c.Abandoned++
	}
}

func (c *Counters) visitNode() {
	if c != nil {
		c.NodesVisited++
	}
}

func (c *Counters) pruneNodes(n int64) {
	if c != nil {
		c.NodesPruned += n
	}
}

// DirectedNaive computes the directed Hausdorff distance
// h(A→B) = max over a in A of min over b in B of dRMS(a, b),
// evaluating every pair. It returns 0 when A is empty and +Inf when A is
// non-empty but B is empty.
func DirectedNaive(a, b [][]linalg.Vec3) float64 {
	return directedNaive(a, b, nil)
}

func directedNaive(a, b [][]linalg.Vec3, c *Counters) float64 {
	var cmax float64
	for _, fa := range a {
		cmin := math.Inf(1)
		for _, fb := range b {
			c.eval()
			if d := linalg.DRMS(fa, fb); d < cmin {
				cmin = d
			}
		}
		if cmin > cmax {
			cmax = cmin
		}
	}
	return cmax
}

// DirectedEarlyBreak computes the same directed distance as
// DirectedNaive but breaks out of the inner scan once a distance below
// the running maximum proves the current frame cannot raise it.
func DirectedEarlyBreak(a, b [][]linalg.Vec3) float64 {
	return directedEarlyBreak(a, b, 0, nil)
}

// directedEarlyBreak is DirectedEarlyBreak with the running maximum
// started at seed instead of 0: it returns max(seed, h(A→B)), and every
// row whose minimum is already below seed breaks at the first distance
// that shows it. Seeding the reverse pass with the forward pass's
// result is how the symmetric distance carries one running maximum
// across both directions (docs/kernels.md, "The symmetric distance").
// The probe row is scanned before the others (probeRow); this kernel
// has no start column, so its rows all scan from column 0.
func directedEarlyBreak(a, b [][]linalg.Vec3, seed float64, c *Counters) float64 {
	if len(a) == 0 {
		return seed
	}
	probe, _ := probeRow(len(a), len(b))
	cmax := earlyBreakRow(a[probe], b, seed, c)
	for i, fa := range a {
		if i != probe {
			cmax = earlyBreakRow(fa, b, cmax, c)
		}
	}
	return cmax
}

// earlyBreakRow scans one row of a directed pass whose running maximum
// is cmax and returns the running maximum after it.
func earlyBreakRow(fa []linalg.Vec3, b [][]linalg.Vec3, cmax float64, c *Counters) float64 {
	cmin := math.Inf(1)
	for j, fb := range b {
		c.eval()
		d := linalg.DRMS(fa, fb)
		if d < cmax {
			c.prune(int64(len(b) - j - 1))
			return cmax
		}
		if d < cmin {
			cmin = d
		}
	}
	if cmin > cmax {
		cmax = cmin
	}
	return cmax
}

// probeRow is the visiting order every non-naive kernel shares: the row
// of an na × nb directed pass that is scanned to its exact minimum
// before the sequential sweep of the others, and the column its inner
// scan starts at. The early break and the row skip only fire against a
// running maximum that is already large, and a sweep from row 0 builds
// it up one row at a time; a row scanned first hands the sweep its
// minimum, so nearly every other row stops at its first evaluation.
// The maximum over rows does not depend on the order they are visited
// in, so any row would be exact. The last one is chosen because a
// diverging path realises its directed distance at an end and the
// sweep, anchored at row 0, learns about the far end last; the
// proportional column is where B is as far along as the probe is along
// A. One probe, not two, and not an option: docs/kernels.md, "Row
// order: probe first", has the measurements.
func probeRow(na, nb int) (row, col int) {
	row = na - 1
	return row, row * nb / na
}

// Frames extracts the coordinate view of a trajectory for the distance
// kernels (no copying).
func Frames(t *traj.Trajectory) [][]linalg.Vec3 {
	out := make([][]linalg.Vec3, len(t.Frames))
	for i := range t.Frames {
		out[i] = t.Frames[i].Coords
	}
	return out
}

// Distance computes the symmetric Hausdorff distance
// H(A,B) = max(h(A→B), h(B→A)) between two trajectories with the chosen
// method. Both trajectories must have the same atom count.
func Distance(a, b *traj.Trajectory, m Method) float64 {
	return DistanceCounted(a, b, m, nil)
}

// DistanceCounted is Distance with frame-pair accounting folded into c
// (which may be nil). The Pruned and Indexed methods consume the
// trajectories' cached packed representation (traj.Trajectory.Packed);
// Indexed additionally consumes the cached frame-signature ball tree
// (traj.Packed.FrameTree).
func DistanceCounted(a, b *traj.Trajectory, m Method, c *Counters) float64 {
	switch m {
	case Pruned:
		return DistancePacked(a.Packed(), b.Packed(), c)
	case Indexed:
		return DistanceIndexed(a.Packed(), b.Packed(), c)
	}
	return DistanceFramesCounted(Frames(a), Frames(b), m, c)
}

// DistanceFrames is Distance on raw frame views. Empty inputs follow
// the directed-distance convention: 0 when both sides are empty, +Inf
// when exactly one side is empty (no frame of the non-empty side has a
// nearest neighbour).
func DistanceFrames(fa, fb [][]linalg.Vec3, m Method) float64 {
	return DistanceFramesCounted(fa, fb, m, nil)
}

// DistanceFramesCounted is DistanceFrames with frame-pair accounting
// folded into c (which may be nil). For the Pruned method it packs both
// frame sets on the fly; callers comparing whole trajectories should
// prefer Distance/DistancePacked, which reuse the per-trajectory packing.
func DistanceFramesCounted(fa, fb [][]linalg.Vec3, m Method, c *Counters) float64 {
	switch m {
	case EarlyBreak:
		return directedEarlyBreak(fb, fa, directedEarlyBreak(fa, fb, 0, c), c)
	case Pruned:
		return DistancePacked(packViews(fa), packViews(fb), c)
	case Indexed:
		return DistanceIndexed(packViews(fa), packViews(fb), c)
	default:
		h1 := directedNaive(fa, fb, c)
		h2 := directedNaive(fb, fa, c)
		return math.Max(h1, h2)
	}
}

// packViews packs raw frame views, deriving the atom count from the
// first frame (zero frames pack as an empty trajectory).
func packViews(frames [][]linalg.Vec3) *traj.Packed {
	nAtoms := 0
	if len(frames) > 0 {
		nAtoms = len(frames[0])
	}
	return traj.PackFrames(frames, nAtoms)
}

// Matrix2DRMS computes the full frame-by-frame dRMS matrix between two
// trajectories: element i*len(b)+j is dRMS(a_i, b_j). This is the
// CPPTraj "2D-RMSD" kernel of §4.2: Algorithm 1 with no min–max
// reduction, from which the Hausdorff distance is recovered by
// FromMatrix.
func Matrix2DRMS(a, b [][]linalg.Vec3) []float64 {
	out := make([]float64, len(a)*len(b))
	for i, fa := range a {
		row := out[i*len(b) : (i+1)*len(b)]
		for j, fb := range b {
			row[j] = linalg.DRMS(fa, fb)
		}
	}
	return out
}

// FromMatrix recovers the symmetric Hausdorff distance from a
// precomputed na×nb frame distance matrix (row-major). Empty inputs
// follow DistanceFrames: 0 when both dimensions are empty, +Inf when
// exactly one is.
func FromMatrix(m []float64, na, nb int) float64 {
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return math.Inf(1)
	}
	if len(m) != na*nb {
		panic("hausdorff: FromMatrix dimensions do not match matrix length")
	}
	var h1 float64 // max over rows of min over cols
	for i := 0; i < na; i++ {
		row := m[i*nb : (i+1)*nb]
		cmin := row[0]
		for _, d := range row[1:] {
			if d < cmin {
				cmin = d
			}
		}
		if cmin > h1 {
			h1 = cmin
		}
	}
	var h2 float64 // max over cols of min over rows
	for j := 0; j < nb; j++ {
		cmin := m[j]
		for i := 1; i < na; i++ {
			if d := m[i*nb+j]; d < cmin {
				cmin = d
			}
		}
		if cmin > h2 {
			h2 = cmin
		}
	}
	return math.Max(h1, h2)
}
