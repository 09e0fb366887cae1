package leaflet

import (
	"math"
	"sync"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
)

// cellSlack widens a cell a hair past the cutoff: a pair the kernels'
// rounded Dist2 <= cutoff² test accepts lies at most cutoff·(1+8u)
// apart on every axis (u = 2^-53), and rounding its two cell
// coordinates adds at most 2u of the axis' cell count to each, under
// 5e-10 of a cell together (docs/engines.md, "The tree approach's cell
// list").
const cellSlack = 1e-9

// maxAxisCells caps the cells along one axis, which keeps the rounding
// of a pair's two cell coordinates (4u × 2^20 ≈ 5e-10 of a cell) inside
// cellSlack.
const maxAxisCells = 1 << 20

// minNormal is the smallest normal float64. Below it a squared cutoff
// loses its relative precision, and at +Inf every pair passes, so the
// slack argument needs cutoff² in [minNormal, MaxFloat64].
const minNormal = 0x1p-1022

// cellList is the tree approach's spatial index over one column chunk,
// a cell list (Allen & Tildesley, Computer Simulation of Liquids): the
// chunk's box is cut into cubic cells of side at least the slackened
// cutoff, so a row atom's neighbours lie in the 3 × 3 × 3 cells around
// its own. The cells only filter candidates; linalg.Dist2 <= cutoff²
// decides every pair, as in blockEdgesBrute, so both kernels find the
// same edges. A cellList is reused through cellPool.
type cellList struct {
	lo     linalg.Vec3 // the chunk box's low corner, where cell (0,0,0) starts
	side   float64     // cell side, >= cutoff·(1+cellSlack)
	n      [3]int      // cells along each axis
	single bool        // one cell that every row atom scans: a pairwise scan

	// Cell c (x fastest, then y, then z) holds the column atoms
	// idx[start[c]:start[c+1]], at pts[start[c]:start[c+1]].
	start []int32
	idx   []int32
	pts   []linalg.Vec3
	cell  []int32 // scratch: each column atom's cell, in chunk order
}

var cellPool = sync.Pool{New: func() any { return new(cellList) }}

// bin sorts the atoms cols of coords into cells with a counting sort
// over the chunk's box, O(|cols|). The side starts at
// cutoff·(1+cellSlack) and doubles until there are no more cells than
// atoms and no axis has more than maxAxisCells; any side at least the
// slackened cutoff is exact. A chunk whose box extent is not finite, or
// a cutoff whose square is not a normal float, gets one cell.
func (cl *cellList) bin(coords []linalg.Vec3, cols span, cutoff float64) {
	pts := coords[cols.lo:cols.hi]
	m := len(pts)
	cl.n, cl.single = [3]int{1, 1, 1}, true
	if c2 := cutoff * cutoff; m > 0 && c2 >= minNormal && c2 <= math.MaxFloat64 {
		lo, hi := linalg.BoundingBox(pts)
		cl.lo, cl.single = lo, false
		for k := range 3 {
			if ext := hi[k] - lo[k]; !(ext <= math.MaxFloat64) {
				cl.single = true // ±Inf, NaN, or a finite box wider than MaxFloat64
			}
		}
		for side := cutoff * (1 + cellSlack); !cl.single; side *= 2 {
			var n [3]float64
			for k := range 3 {
				n[k] = math.Floor((hi[k]-lo[k])/side) + 1
			}
			if max(n[0], n[1], n[2]) <= maxAxisCells && n[0]*n[1]*n[2] <= float64(m) {
				cl.side, cl.n = side, [3]int{int(n[0]), int(n[1]), int(n[2])}
				break
			}
		}
	}

	ncell := cl.n[0] * cl.n[1] * cl.n[2]
	cl.start = resize(cl.start, ncell+1)
	cl.cell = resize(cl.cell, m)
	for j, q := range pts {
		c := 0
		if !cl.single {
			for k := 2; k >= 0; k-- {
				ck := 0
				if t := math.Floor((q[k] - cl.lo[k]) / cl.side); t > 0 { // NaN stays in cell 0
					ck = int(min(t, float64(cl.n[k]-1)))
				}
				c = c*cl.n[k] + ck
			}
		}
		cl.cell[j] = int32(c)
		cl.start[c+1]++
	}
	for c := 1; c <= ncell; c++ {
		cl.start[c] += cl.start[c-1]
	}
	// Place each atom at its cell's cursor; afterwards start[c] has
	// advanced to cell c's end, so shift it back by one cell.
	cl.idx = resize(cl.idx, m)
	cl.pts = resize(cl.pts, m)
	for j, c := range cl.cell {
		k := cl.start[c]
		cl.idx[k], cl.pts[k] = int32(cols.lo+j), pts[j]
		cl.start[c]++
	}
	copy(cl.start[1:], cl.start[:ncell])
	cl.start[0] = 0
}

// neighbourhood returns the clamped 3 × 3 × 3 block of cells around p's
// cell, floor((p − lo) / side) on each axis, or ok = false when that
// block holds no cell (p is beyond the box by more than a cell, or not
// finite, and so within the cutoff of no binned atom).
func (cl *cellList) neighbourhood(p linalg.Vec3) (lo, hi [3]int, ok bool) {
	if cl.single {
		return lo, hi, true
	}
	for k := range 3 {
		t := math.Floor((p[k] - cl.lo[k]) / cl.side)
		if !(t >= -1 && t <= float64(cl.n[k])) {
			return lo, hi, false
		}
		c := int(t)
		lo[k], hi[k] = max(c-1, 0), min(c+1, cl.n[k]-1)
	}
	return lo, hi, true
}

// appendEdges appends to out every edge (i, j) of row atoms rows
// against the binned atoms: linalg.Dist2(coords[i], coords[j]) <=
// cutoff², and j > i when upper is set (a diagonal tile, whose rows are
// among the binned atoms). It also returns the number of Dist2 tests
// it made.
func (cl *cellList) appendEdges(out []graph.Edge, coords []linalg.Vec3, rows span, cutoff float64, upper bool) ([]graph.Edge, int) {
	c2 := cutoff * cutoff
	tests := 0
	for i := rows.lo; i < rows.hi; i++ {
		p := coords[i]
		lo, hi, ok := cl.neighbourhood(p)
		if !ok {
			continue
		}
		for z := lo[2]; z <= hi[2]; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				row := (z*cl.n[1] + y) * cl.n[0]
				for k := cl.start[row+lo[0]]; k < cl.start[row+hi[0]+1]; k++ {
					j := cl.idx[k]
					if upper && j <= int32(i) {
						continue
					}
					tests++
					if linalg.Dist2(p, cl.pts[k]) <= c2 {
						out = append(out, graph.Edge{U: int32(i), V: j})
					}
				}
			}
		}
	}
	return out, tests
}
