package leaflet

import (
	"math"

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
// cells only pick candidates: linalg.AppendWithin decides each with
// Dist2's own rounded test, <= cutoff², as pairwiseEdges does, so both
// kernels find the same edges. The scans union every edge into a
// forest as they find it, one pass with no edge list. A cellList lives
// in a pooled tileScratch.
type cellList struct {
	lo     linalg.Vec3 // the chunk box's low corner, where cell (0,0,0) starts
	side   float64     // cell side, >= cutoff·(1+cellSlack)
	n      [3]int      // cells along each axis
	single bool        // one cell that every atom scans: a pairwise scan

	// Cell c (x fastest, then y, then z) holds the binned positions
	// start[c]:start[c+1]: atom idx[k] at (x[k], y[k], z[k]), three
	// columns, so a run of a cell row's candidates is three contiguous
	// loads.
	start   []int32
	idx     []int32
	x, y, z []float64
	cell    []int32 // scratch: each atom's cell, in chunk order
	runs    []int32 // scratch: one atom's candidate runs, lo, hi pairs
	hits    []int32 // scratch: the positions of its runs that pass the test
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
	cl.x, cl.y, cl.z = resize(cl.x, m), resize(cl.y, m), resize(cl.z, m)
	for j, c := range cl.cell {
		k := cl.start[c]
		cl.idx[k] = base + int32(j)
		cl.x[k], cl.y[k], cl.z[k] = pts[j][0], pts[j][1], pts[j][2]
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

// crossRuns sets cl.runs to the binned positions in the block of cells
// around p, one run per non-empty cell row (x fastest, so a row's
// cells are contiguous positions), in ascending order, and returns the
// number of candidates they hold.
func (cl *cellList) crossRuns(p linalg.Vec3) int {
	cl.runs = cl.runs[:0]
	lo, hi, ok := cl.neighbourhood(p)
	if !ok {
		return 0
	}
	tests := 0
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			row := (z*cl.n[1] + y) * cl.n[0]
			if a, b := cl.start[row+lo[0]], cl.start[row+hi[0]+1]; a < b {
				cl.runs = append(cl.runs, a, b)
				tests += int(b - a)
			}
		}
	}
	return tests
}

// shellRuns sets cl.runs to the candidate runs of cell c's half shell:
// c's own cell row from c's first position (the scan of position k
// moves that start to k+1), the row after it, and the three rows of the
// next plane. Cells are numbered x fastest, so the block's rows before
// c's own (z, y) row hold only earlier positions and are left out. It
// returns the candidates of the runs after the first, which are the
// same for every atom of c.
func (cl *cellList) shellRuns(c int) int {
	nx, ny := cl.n[0], cl.n[1]
	x, y, z := c%nx, c/nx%ny, c/(nx*ny)
	xlo, xhi := max(x-1, 0), min(x+1, nx-1)
	yhi, zhi := min(y+1, ny-1), min(z+1, cl.n[2]-1)
	own := (z*ny + y) * nx
	cl.runs = append(cl.runs[:0], cl.start[c], cl.start[own+xhi+1])
	rest := 0
	for zz := z; zz <= zhi; zz++ {
		ylo := max(y-1, 0)
		if zz == z {
			ylo = y + 1
		}
		for yy := ylo; yy <= yhi; yy++ {
			row := (zz*ny + yy) * nx
			if a, b := cl.start[row+xlo], cl.start[row+xhi+1]; a < b {
				cl.runs = append(cl.runs, a, b)
				rest += int(b - a)
			}
		}
	}
	return rest
}

// link tests atom i at p against the candidate runs in cl.runs and
// unions every atom that passes into i's set, finding i's root once and
// each hit's once (graph.UnionFind.UnionRoot). It returns the hits,
// which are the edges from i.
func (cl *cellList) link(uf *graph.UnionFind, i int32, p linalg.Vec3, c2 float64) int {
	cl.hits = linalg.AppendWithin(cl.hits[:0], p, cl.x, cl.y, cl.z, cl.runs, c2)
	if len(cl.hits) == 0 {
		return 0
	}
	root := uf.Find(i)
	for _, q := range cl.hits {
		root = uf.UnionRoot(root, cl.idx[q])
	}
	return len(cl.hits)
}

// unionCross unions into uf every edge of the atoms rows, row r as node
// r, against the binned atoms (an off-diagonal tile, whose rows are not
// binned). It returns the edges and the Dist2 tests it made.
func (cl *cellList) unionCross(uf *graph.UnionFind, rows []linalg.Vec3, c2 float64) (edges, tests int) {
	for r, p := range rows {
		tests += cl.crossRuns(p)
		edges += cl.link(uf, int32(r), p, c2)
	}
	return edges, tests
}

// unionHalfShell unions into uf every edge among the binned atoms (a
// diagonal tile, or Serial's whole system): the atom at position k is
// tested only against the later positions of its half shell, so each
// neighbouring pair is tested once, from its earlier position. It
// returns the edges and the Dist2 tests it made.
func (cl *cellList) unionHalfShell(uf *graph.UnionFind, c2 float64) (edges, tests int) {
	for c := range len(cl.start) - 1 {
		end := cl.start[c+1]
		if cl.start[c] == end {
			continue
		}
		rest := cl.shellRuns(c)
		for k := cl.start[c]; k < end; k++ {
			cl.runs[0] = k + 1
			tests += int(cl.runs[1]-k-1) + rest
			edges += cl.link(uf, cl.idx[k], linalg.Vec3{cl.x[k], cl.y[k], cl.z[k]}, c2)
		}
	}
	return edges, tests
}

// unionTile unions into uf, over the tile's local ids (row atom r as r,
// column atom c as len(rows)+c), every edge of one tile found by the
// cell list: on a diagonal tile the rows are binned and scanned by half
// shell (cols is ignored), otherwise the columns are binned and every
// row atom scans its neighbourhood. It returns the edges and the Dist2
// tests it made.
func (cl *cellList) unionTile(uf *graph.UnionFind, rows, cols []linalg.Vec3, diagonal bool, cutoff float64) (edges, tests int) {
	c2 := cutoff * cutoff
	if diagonal {
		cl.bin(rows, 0, cutoff)
		return cl.unionHalfShell(uf, c2)
	}
	cl.bin(cols, int32(len(rows)), cutoff)
	return cl.unionCross(uf, rows, c2)
}
