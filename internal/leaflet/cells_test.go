package leaflet

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// pairwiseTests is the number of Dist2 tests blockEdgesBrute makes on b.
func pairwiseTests(b block) int {
	if b.rows == b.cols {
		return b.rows.len() * (b.rows.len() - 1) / 2
	}
	return b.rows.len() * b.cols.len()
}

// blockEdgesTree is the edge-emitting cell scan, the oracle of the
// one-pass scans (unionTile): cellScan with each candidate decided by
// linalg.Dist2 one pair at a time. It must find exactly
// blockEdgesBrute's edges, and it returns the Dist2 tests it made.
func blockEdgesTree(coords []linalg.Vec3, b block, cutoff float64) ([]graph.Edge, int) {
	return cellScan(coords, b, cutoff, dist2Hits)
}

// dist2Hits is the reference decision: the positions of cl.runs whose
// atom passes linalg.Dist2(p, ·) <= c2, one pair at a time.
func dist2Hits(cl *cellList, p linalg.Vec3, c2 float64) []int32 {
	var hits []int32
	for r := 0; r < len(cl.runs); r += 2 {
		for q := cl.runs[r]; q < cl.runs[r+1]; q++ {
			if linalg.Dist2(p, linalg.Vec3{cl.x[q], cl.y[q], cl.z[q]}) <= c2 {
				hits = append(hits, q)
			}
		}
	}
	return hits
}

// laneHits is the one-pass scans' decision, linalg.AppendWithin, the
// lanes where the host has them.
func laneHits(cl *cellList, p linalg.Vec3, c2 float64) []int32 {
	return linalg.AppendWithin(nil, p, cl.x, cl.y, cl.z, cl.runs, c2)
}

// cellScan walks tile b's atoms and their candidate runs as the one-pass
// scans do (half shell on a diagonal tile, the binned columns otherwise)
// and returns, in scan order and in global atom ids, the edges to the
// candidates hits selects, with the number of candidates it was given.
func cellScan(coords []linalg.Vec3, b block, cutoff float64, hits func(*cellList, linalg.Vec3, float64) []int32) ([]graph.Edge, int) {
	var cl cellList
	c2 := cutoff * cutoff
	var out []graph.Edge
	tests := 0
	scan := func(i int32, p linalg.Vec3) {
		for r := 0; r < len(cl.runs); r += 2 {
			tests += max(int(cl.runs[r+1]-cl.runs[r]), 0)
		}
		for _, q := range hits(&cl, p, c2) {
			j := cl.idx[q]
			out = append(out, graph.Edge{U: min(i, j), V: max(i, j)})
		}
	}
	if b.rows == b.cols {
		cl.bin(b.rows.of(coords), int32(b.rows.lo), cutoff)
		for c := range len(cl.start) - 1 {
			cl.shellRuns(c)
			for k := cl.start[c]; k < cl.start[c+1]; k++ {
				cl.runs[0] = k + 1
				scan(cl.idx[k], linalg.Vec3{cl.x[k], cl.y[k], cl.z[k]})
			}
		}
		return out, tests
	}
	cl.bin(b.cols.of(coords), int32(b.cols.lo), cutoff)
	for r, p := range b.rows.of(coords) {
		cl.crossRuns(p)
		scan(int32(b.rows.lo+r), p)
	}
	return out, tests
}

// unionTileCounts runs the one-pass scan of the tile body on b and
// returns its edge and Dist2 test counts.
func unionTileCounts(coords []linalg.Vec3, b block, cutoff float64) (edges, tests int) {
	s := tilePool.Get().(*tileScratch)
	defer tilePool.Put(s)
	rows, cols := b.rows.of(coords), b.cols.of(coords)
	s.uf.Reset(len(rows) + len(cols))
	return s.cells.unionTile(&s.uf, rows, cols, b.rows == b.cols, cutoff)
}

// leafletColdTiles is a 32768-atom membrane in lattice order and the
// live tiles a 1024-task job over it runs.
func leafletColdTiles() ([]linalg.Vec3, []block) {
	coords := membrane(32768).Coords
	return coords, liveBlocks2D(coords, synth.BilayerCutoff, 1024)
}

// The cell list finds exactly the pairwise edges of every live tile of
// a 32768-atom job, with at most 1/15 of the pairwise scan's Dist2
// tests, and of a sample of the tiles of the same membrane shuffled,
// where every tile is live and every chunk spans the membrane. The
// one-pass scan counts the oracle's edges and tests.
func TestTreeEdgesMatchBruteEdges(t *testing.T) {
	coords, live := leafletColdTiles()
	if len(live) != 86 {
		t.Fatalf("%d live tiles, want 86", len(live))
	}
	cellTests, pairTests := 0, 0
	for _, b := range live {
		want := blockEdgesBrute(coords, b, synth.BilayerCutoff)
		got, tests := blockEdgesTree(coords, b, synth.BilayerCutoff)
		if !sameEdgeSet(got, want) {
			t.Fatalf("lattice tile %+v: %d cell-list edges, pairwise %d", b, len(got), len(want))
		}
		if e, k := unionTileCounts(coords, b, synth.BilayerCutoff); e != len(got) || k != tests {
			t.Fatalf("lattice tile %+v: one-pass scan %d edges in %d tests, oracle %d in %d", b, e, k, len(got), tests)
		}
		cellTests += tests
		pairTests += pairwiseTests(b)
	}
	if cellTests*15 > pairTests {
		t.Errorf("cell list made %d Dist2 tests on the live tiles, more than 1/15 of the pairwise %d", cellTests, pairTests)
	}

	shuffled := append([]linalg.Vec3{}, coords...)
	r := rand.New(rand.NewPCG(9, 9))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	grid := blocks2D(len(shuffled), 1024)
	for k := 0; k < len(grid); k += 45 {
		b := grid[k]
		want := blockEdgesBrute(shuffled, b, synth.BilayerCutoff)
		if got, _ := blockEdgesTree(shuffled, b, synth.BilayerCutoff); !sameEdgeSet(got, want) {
			t.Fatalf("shuffled tile %+v: %d cell-list edges, pairwise %d", b, len(got), len(want))
		}
	}
}

// The one-pass tile body (each edge unioned as the scan finds it)
// returns exactly the partial built from the pairwise edges plus a
// union-find, with either kernel, on every live tile of the 32768-atom
// job and on a sample of the tiles of the same membrane shuffled.
func TestOnePassTileMatchesBruteUnion(t *testing.T) {
	coords, live := leafletColdTiles()
	shuffled := append([]linalg.Vec3{}, coords...)
	r := rand.New(rand.NewPCG(11, 4))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	grid := blocks2D(len(shuffled), 1024)
	var sample []block
	for k := 7; k < len(grid); k += 61 {
		sample = append(sample, grid[k])
	}
	for _, order := range []struct {
		name   string
		coords []linalg.Vec3
		tiles  []block
	}{{"lattice", coords, live}, {"shuffled", shuffled, sample}} {
		for _, b := range order.tiles {
			want := tileRef(order.coords, b, synth.BilayerCutoff)
			for _, tree := range []bool{true, false} {
				got := tilePartial(b.rows.of(order.coords), b.cols.of(order.coords), b, synth.BilayerCutoff, tree)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s tile %+v tree=%v: %d components over %d edges, brute %d over %d",
						order.name, b, tree, len(got.Comps), got.Edges, len(want.Comps), want.Edges)
				}
			}
		}
	}
}

// Hostile column chunks neither panic nor grow the grid past one cell
// per atom, and the cell list still finds exactly the pairwise edges,
// pairs at exactly the cutoff included.
func TestCellListHostileInputs(t *testing.T) {
	big := 1e300
	lattice := func(n int, step float64) []linalg.Vec3 { // pairs at exactly step
		pts := make([]linalg.Vec3, 0, n*n*n)
		for x := range n {
			for y := range n {
				for z := range n {
					pts = append(pts, linalg.Vec3{float64(x) * step, float64(y) * step, float64(z) * step})
				}
			}
		}
		return pts
	}
	same := make([]linalg.Vec3, 50)
	for i := range same {
		same[i] = linalg.Vec3{1.5, -2, 7}
	}
	r := rand.New(rand.NewPCG(3, 1))
	spread := make([]linalg.Vec3, 60)
	for i := range spread { // clusters at ±1e300 and the origin, each atom near another
		c := []float64{-big, 0, big}[i%3]
		spread[i] = linalg.Vec3{c + r.Float64(), c, r.Float64()}
	}
	for _, tc := range []struct {
		name       string
		rows, cols []linalg.Vec3
		cutoff     float64
	}{
		{"empty cols", lattice(2, 1), nil, 1},
		{"empty rows", nil, lattice(2, 1), 1},
		{"1-atom cols", lattice(3, 1), []linalg.Vec3{{1, 1, 2}}, 1},
		{"all identical", same[:25], same[25:], 0.5},
		{"lattice at the cutoff", lattice(5, 2), lattice(4, 2)[7:], 2},
		{"lattice at the cutoff, 0.1", lattice(4, 0.1), lattice(4, 0.1), 0.1},
		{"extent ±1e300", spread[:30], spread[30:], 2},
		{"extent +Inf", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{0.5, 0, 0}, {math.Inf(1), 0, 0}}, 1},
		{"NaN atom", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{0.5, 0, 0}, {math.NaN(), 0, 0}, {-3, 2, 9}}, 1},
		{"subnormal cutoff²", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{1e-170, 0, 0}, {1, 0, 0}}, 1e-200},
		{"infinite cutoff²", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{-big, 0, 0}, {big, 0, 0}}, 1e160},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coords := append(append([]linalg.Vec3{}, tc.rows...), tc.cols...)
			rows, cols := span{hi: len(tc.rows)}, span{lo: len(tc.rows), hi: len(coords)}
			// The last two are diagonal tiles: the half-shell scan.
			for _, b := range []block{{rows, cols}, {rows, rows}, {cols, cols}} {
				want := blockEdgesBrute(coords, b, tc.cutoff)
				got, _ := blockEdgesTree(coords, b, tc.cutoff)
				if !sameEdgeSet(got, want) {
					t.Fatalf("tile %+v: cell-list edges %v, pairwise %v", b, got, want)
				}
				wantTile := TilePartial{Comps: partialComponentsRef(want), Edges: int64(len(want))}
				if tp := tilePartial(b.rows.of(coords), b.cols.of(coords), b, tc.cutoff, true); !reflect.DeepEqual(tp, wantTile) {
					t.Fatalf("tile %+v: tile body %+v, reference %+v", b, tp, wantTile)
				}
				var cl cellList
				cl.bin(b.cols.of(coords), int32(b.cols.lo), tc.cutoff)
				if cells := len(cl.start) - 1; cells > max(b.cols.len(), 1) {
					t.Fatalf("tile %+v: %d cells for %d atoms", b, cells, b.cols.len())
				}
			}
		})
	}
}

// FuzzCellScan holds the one-pass cell scan to the pairwise Dist2
// test on random chunks of rows and columns, atoms on a dyadic grid so
// that distances are exact. Each byte triple of plant moves one atom
// next to another: at exactly the cutoff along an axis, one ulp inside
// or outside it, onto it, to the origin (where the zeros of a
// masked-off lane would pass), or to ±Inf or NaN on one axis. On both
// diagonal tiles and the off-diagonal one, the lanes must select
// exactly the candidates Dist2 selects, atom by atom in scan order, and
// the tile body must count the same edges and Dist2 tests and return
// the partial components built from the pairwise scan's edges.
func FuzzCellScan(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(20), []byte{0, 21, 0, 3, 30, 1, 5, 6, 2}, uint8(0))
	f.Add(uint64(2), uint8(7), uint8(13), []byte{1, 2, 4, 9, 10, 5, 0, 8, 6}, uint8(1))
	f.Add(uint64(3), uint8(30), uint8(1), []byte{2, 30, 3, 4, 5, 7}, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nRows, nCols uint8, plant []byte, cutoffKind uint8) {
		cutoff := []float64{1.5, 0.75, 3, 1e-200, 1e160}[cutoffKind%5] // the last two: c² subnormal, +Inf
		r := rand.New(rand.NewPCG(seed, 56))
		coords := make([]linalg.Vec3, int(nRows)%40+int(nCols)%40)
		for i := range coords {
			coords[i] = linalg.Vec3{float64(r.IntN(32)) / 4, float64(r.IntN(32)) / 4, float64(r.IntN(32)) / 4}
		}
		for k := 0; k+2 < len(plant) && len(coords) > 0; k += 3 {
			i, j := int(plant[k])%len(coords), int(plant[k+1])%len(coords)
			p, axis := coords[i], int(plant[k+2]>>3)%3
			switch plant[k+2] % 8 {
			case 0:
				p[axis] += cutoff
			case 1:
				p[axis] += math.Nextafter(cutoff, math.Inf(1))
			case 2:
				p[axis] -= math.Nextafter(cutoff, 0)
			case 3: // p itself
			case 4:
				p = linalg.Vec3{}
			case 5:
				p[axis] = math.Inf(1)
			case 6:
				p[axis] = math.Inf(-1)
			default:
				p[axis] = math.NaN()
			}
			coords[j] = p
		}
		nr := min(int(nRows)%40, len(coords))
		rows, cols := span{hi: nr}, span{lo: nr, hi: len(coords)}
		for _, b := range []block{{rows, cols}, {rows, rows}, {cols, cols}} {
			want, wantTests := cellScan(coords, b, cutoff, dist2Hits)
			if got, _ := cellScan(coords, b, cutoff, laneHits); !slices.Equal(got, want) {
				t.Fatalf("tile %+v: lanes select %v, Dist2 %v", b, got, want)
			}
			if e, k := unionTileCounts(coords, b, cutoff); e != len(want) || k != wantTests {
				t.Fatalf("tile %+v: one-pass scan %d edges in %d tests, Dist2 %d in %d", b, e, k, len(want), wantTests)
			}
			if got, ref := tilePartial(b.rows.of(coords), b.cols.of(coords), b, cutoff, true), tileRef(coords, b, cutoff); !reflect.DeepEqual(got, ref) {
				t.Fatalf("tile %+v: tile body %+v, pairwise %+v", b, got, ref)
			}
		}
	})
}

// Serial, the whole system as one diagonal block, labels as a pairwise
// scan does.
func TestSerialMatchesPairwise(t *testing.T) {
	sys := membrane(3000)
	for _, cutoff := range []float64{synth.BilayerCutoff, 2 * synth.BilayerCutoff} {
		uf := graph.NewUnionFind(len(sys.Coords))
		edges := blockEdgesBrute(sys.Coords, block{span{hi: 3000}, span{hi: 3000}}, cutoff)
		for _, e := range edges {
			uf.Union(e.U, e.V)
		}
		res := Serial(sys.Coords, cutoff)
		if !slices.Equal(res.Labels, uf.Labels()) || res.Stats.Edges != int64(len(edges)) {
			t.Fatalf("cutoff %g: Serial found %d edges, pairwise %d", cutoff, res.Stats.Edges, len(edges))
		}
	}
}

// BenchmarkLeafletTiles times the tile kernels over the live tiles of a
// 32768-atom job and reports Dist2 tests per tile (the pairwise count
// for the pairwise kernel). The cells row times the one-pass cell scan
// with its unions, the pairwise row the edge-emitting pairwise scan of
// Approach 2, and the partial row the whole tile body of Approach 4,
// scan plus canonical partial components. Allocations are per pass over
// the live tiles. It gates nothing.
func BenchmarkLeafletTiles(b *testing.B) {
	coords, live := leafletColdTiles()
	cellTests, pairTests := 0, 0
	for _, t := range live {
		_, n := unionTileCounts(coords, t, synth.BilayerCutoff)
		cellTests += n
		pairTests += pairwiseTests(t)
	}
	for _, k := range []struct {
		name   string
		tests  int
		kernel func(block)
	}{
		{"cells", cellTests, func(t block) { unionTileCounts(coords, t, synth.BilayerCutoff) }},
		{"pairwise", pairTests, func(t block) { blockEdgesBrute(coords, t, synth.BilayerCutoff) }},
		{"partial", cellTests, func(t block) {
			tilePartial(t.rows.of(coords), t.cols.of(coords), t, synth.BilayerCutoff, true)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, t := range live {
					k.kernel(t)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(live)), "ns/tile")
			b.ReportMetric(float64(k.tests)/float64(len(live)), "dist2/tile")
		})
	}
}
