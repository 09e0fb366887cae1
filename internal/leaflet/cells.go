package leaflet

import (
	"math"
	"sort"

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

// cellList is the tree approach's spatial index over one chunk, a cell
// list (Allen & Tildesley, Computer Simulation of Liquids): the chunk's
// box is cut into cubic cells of side at least the slackened cutoff, so
// an atom's neighbours lie in the 3 × 3 × 3 cells around its own. The
// cells only filter candidates; linalg.Dist2 <= cutoff² decides every
// pair, as in pairwiseEdges, so both kernels find the same edges. A
// cellList lives in a pooled tileScratch.
type cellList struct {
	lo     linalg.Vec3 // the chunk box's low corner, where cell (0,0,0) starts
	side   float64     // cell side, >= cutoff·(1+cellSlack)
	n      [3]int      // cells along each axis
	single bool        // one cell that every atom scans: a pairwise scan

	// Cell c (x fastest, then y, then z) holds the binned positions
	// start[c]:start[c+1]: atoms idx[k] at pts[k].
	start []int32
	idx   []int32
	pts   []linalg.Vec3
	cell  []int32 // scratch: each atom's cell, in chunk order
}

// bin sorts the atoms pts, atom j with id base+j, into cells with a
// counting sort over the chunk's box, O(len(pts)). The side starts at
// cutoff·(1+cellSlack) and doubles until there are no more cells than
// atoms and no axis has more than maxAxisCells; any side at least the
// slackened cutoff is exact. A chunk whose box extent is not finite, or
// a cutoff whose square is not a normal float, gets one cell.
func (cl *cellList) bin(pts []linalg.Vec3, base int32, cutoff float64) {
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
		cl.idx[k], cl.pts[k] = base+int32(j), pts[j]
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

// appendCross appends to out every edge (base+r, j) of the atoms rows
// against the binned atoms j, linalg.Dist2 <= cutoff² (an off-diagonal
// tile, whose rows are not binned). It also returns the number of
// Dist2 tests it made.
func (cl *cellList) appendCross(out []graph.Edge, rows []linalg.Vec3, base int32, cutoff float64) ([]graph.Edge, int) {
	c2 := cutoff * cutoff
	tests := 0
	for r, p := range rows {
		lo, hi, ok := cl.neighbourhood(p)
		if !ok {
			continue
		}
		for z := lo[2]; z <= hi[2]; z++ {
			for y := lo[1]; y <= hi[1]; y++ {
				row := (z*cl.n[1] + y) * cl.n[0]
				for k := cl.start[row+lo[0]]; k < cl.start[row+hi[0]+1]; k++ {
					tests++
					if linalg.Dist2(p, cl.pts[k]) <= c2 {
						out = append(out, graph.Edge{U: base + int32(r), V: cl.idx[k]})
					}
				}
			}
		}
	}
	return out, tests
}

// appendHalfShell appends to out every edge among the binned atoms
// found from binned positions [from, to) (a diagonal tile, or Serial a
// chunk of positions at a time): the atom at position k is tested only
// against the positions after k in the 3 × 3 × 3 cells around its own,
// so each neighbouring pair is tested once, from its earlier position,
// and an edge is emitted as {min(i,j), max(i,j)}. Cells are numbered x
// fastest, so the rows of that block before k's own (z, y) row hold
// only earlier positions and are skipped. It also returns the number of
// Dist2 tests it made.
func (cl *cellList) appendHalfShell(out []graph.Edge, from, to int, cutoff float64) ([]graph.Edge, int) {
	c2 := cutoff * cutoff
	tests := 0
	nx, ny, ncell := cl.n[0], cl.n[1], len(cl.start)-1
	// The first cell holding position from; empty cells end where they start.
	c := sort.Search(ncell, func(c int) bool { return int(cl.start[c+1]) > from })
	for ; c < ncell && int(cl.start[c]) < to; c++ {
		x, y, z := c%nx, c/nx%ny, c/(nx*ny)
		xlo, xhi := max(x-1, 0), min(x+1, nx-1)
		yhi, zhi := min(y+1, ny-1), min(z+1, cl.n[2]-1)
		for k := max(int(cl.start[c]), from); k < min(int(cl.start[c+1]), to); k++ {
			i, p := cl.idx[k], cl.pts[k]
			for zz := z; zz <= zhi; zz++ {
				ylo := max(y-1, 0)
				if zz == z {
					ylo = y
				}
				for yy := ylo; yy <= yhi; yy++ {
					row := (zz*ny + yy) * nx
					for q := max(cl.start[row+xlo], int32(k)+1); q < cl.start[row+xhi+1]; q++ {
						tests++
						if linalg.Dist2(p, cl.pts[q]) <= c2 {
							j := cl.idx[q]
							out = append(out, graph.Edge{U: min(i, j), V: max(i, j)})
						}
					}
				}
			}
		}
	}
	return out, tests
}

// tileEdges appends to out the edges of one tile found by the cell
// list, row atom r as rowBase+r and column atom c as colBase+c: on a
// diagonal tile the rows are binned and scanned by half-shell (cols is
// ignored), otherwise the columns are binned and every row atom scans
// its neighbourhood. It returns the Dist2 tests made.
func (cl *cellList) tileEdges(out []graph.Edge, rows, cols []linalg.Vec3, rowBase, colBase int32, diagonal bool, cutoff float64) ([]graph.Edge, int) {
	if diagonal {
		cl.bin(rows, rowBase, cutoff)
		return cl.appendHalfShell(out, 0, len(rows), cutoff)
	}
	cl.bin(cols, colBase, cutoff)
	return cl.appendCross(out, rows, rowBase, cutoff)
}
