// Package hausdorff implements the Hausdorff distance between MD
// trajectories (the paper's Algorithm 1) with the dRMS frame metric,
// in four exact kernels that all produce bit-identical matrices: the
// naive full scan, the early-break optimization of Taha & Hanbury that
// the paper cites as the known sequential speedup, a pruned kernel
// combining exact centroid/radius-of-gyration lower bounds with
// bounded-dRMS early-abandon (pruned.go), and an indexed kernel
// answering each row's min by best-first descent over a ball tree of
// 4-D frame signatures (indexed.go, balltree.FrameTree). Every kernel
// reads one frame layout, the packed rows of traj.Packed, and the
// package has two entry points: DistanceCounted for trajectories held
// in memory and DistanceStreamed, the out-of-core fold (streamed.go),
// for trajectory refs. Both report the frame-pair and tree-node
// Counters every engine accounts. The full kernel-method contract —
// bounds, slack discipline, counter invariants — is docs/kernels.md.
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
// merge (engine.Metrics is the concurrent aggregate).
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

// directedNaive computes the directed Hausdorff distance
// h(A→B) = max over a in A of min over b in B of dRMS(a, b),
// evaluating every pair. Each evaluation runs through
// linalg.DRMSWithin with an infinite bound, which never abandons and
// is bit-identical to linalg.DRMS. It returns 0 when A is empty and
// +Inf when A is non-empty but B is empty.
func directedNaive(a, b *traj.Packed, c *Counters) float64 {
	var cmax float64
	for i := 0; i < a.NFrames; i++ {
		rowA := a.Row(i)
		cmin := math.Inf(1)
		for j := 0; j < b.NFrames; j++ {
			c.eval()
			if d, _ := linalg.DRMSWithin(rowA, b.Row(j), math.Inf(1)); d < cmin {
				cmin = d
			}
		}
		if cmin > cmax {
			cmax = cmin
		}
	}
	return cmax
}

// directedEarlyBreak computes the same directed distance as
// directedNaive but breaks out of the inner scan once a distance below
// the running maximum proves the current frame cannot raise it. The
// running maximum starts at seed instead of 0: it returns
// max(seed, h(A→B)), and every row whose minimum is already below seed
// breaks at the first distance that shows it. Seeding the reverse pass
// with the forward pass's result is how the symmetric distance carries
// one running maximum across both directions (docs/kernels.md, "The
// symmetric distance"). The probe row is scanned before the others
// (probeRow); this kernel has no start column, so its rows all scan
// from column 0.
func directedEarlyBreak(a, b *traj.Packed, seed float64, c *Counters) float64 {
	if a.NFrames == 0 {
		return seed
	}
	probe, _ := probeRow(a.NFrames, b.NFrames)
	cmax := earlyBreakRow(a.Row(probe), b, seed, c)
	for i := 0; i < a.NFrames; i++ {
		if i != probe {
			cmax = earlyBreakRow(a.Row(i), b, cmax, c)
		}
	}
	return cmax
}

// earlyBreakRow scans one row of a directed pass whose running maximum
// is cmax and returns the running maximum after it.
func earlyBreakRow(rowA []float64, b *traj.Packed, cmax float64, c *Counters) float64 {
	nb := b.NFrames
	cmin := math.Inf(1)
	for j := 0; j < nb; j++ {
		c.eval()
		d, _ := linalg.DRMSWithin(rowA, b.Row(j), math.Inf(1))
		if d < cmax {
			c.prune(int64(nb - j - 1))
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

// DistanceCounted computes the symmetric Hausdorff distance
// H(A,B) = max(h(A→B), h(B→A)) between two trajectories with the chosen
// method, folding frame-pair accounting into c (which may be nil). Both
// trajectories must have the same atom count. Every method reads the
// trajectories' cached packed representation (traj.Trajectory.Packed);
// Indexed additionally consumes the cached frame-signature ball tree
// (traj.Packed.FrameTree). Empty inputs follow the directed-distance
// convention: 0 when both sides are empty, +Inf when exactly one side
// is empty (no frame of the non-empty side has a nearest neighbour).
func DistanceCounted(a, b *traj.Trajectory, m Method, c *Counters) float64 {
	pa, pb := a.Packed(), b.Packed()
	switch m {
	case EarlyBreak:
		return directedEarlyBreak(pb, pa, directedEarlyBreak(pa, pb, 0, c), c)
	case Pruned:
		return distancePruned(pa, pb, c)
	case Indexed:
		return distanceIndexed(pa, pb, c)
	default:
		return math.Max(directedNaive(pa, pb, c), directedNaive(pb, pa, c))
	}
}
