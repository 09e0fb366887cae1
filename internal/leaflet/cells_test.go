package leaflet

import (
	"math"
	"math/rand/v2"
	"reflect"
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

// blockEdgesTree finds exactly blockEdgesBrute's edges, in global atom
// ids, with the cell-list kernel of the tile body, and returns them with
// the number of Dist2 tests it made.
func blockEdgesTree(coords []linalg.Vec3, b block, cutoff float64) ([]graph.Edge, int) {
	s := tilePool.Get().(*tileScratch)
	defer tilePool.Put(s)
	return s.cells.tileEdges(nil, b.rows.of(coords), b.cols.of(coords), int32(b.rows.lo), int32(b.cols.lo), b.rows == b.cols, cutoff)
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
// where every tile is live and every chunk spans the membrane.
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
		if !graph.EqualLabels(res.Labels, uf.Labels()) || res.Stats.Edges != int64(len(edges)) {
			t.Fatalf("cutoff %g: Serial found %d edges, pairwise %d", cutoff, res.Stats.Edges, len(edges))
		}
	}
}

// The half-shell scan over binned positions cut into chunks (as Serial
// cuts a system past serialChunk atoms), each chunk starting mid-cell,
// finds exactly the pairwise edges with the Dist2 tests of one whole
// scan, and the chunks' edges are disjoint.
func TestHalfShellChunksCoverEveryPair(t *testing.T) {
	sys := membrane(3000)
	n := len(sys.Coords)
	var cl cellList
	cl.bin(sys.Coords, 0, synth.BilayerCutoff)
	whole, wholeTests := cl.appendHalfShell(nil, 0, n, synth.BilayerCutoff)
	if want := blockEdgesBrute(sys.Coords, block{span{hi: n}, span{hi: n}}, synth.BilayerCutoff); !sameEdgeSet(whole, want) {
		t.Fatalf("whole scan: %d edges, pairwise %d", len(whole), len(want))
	}
	for _, chunk := range []int{1, 7, 100, 1000, n} {
		var edges []graph.Edge
		tests := 0
		for lo := 0; lo < n; lo += chunk {
			var k int
			edges, k = cl.appendHalfShell(edges, lo, min(lo+chunk, n), synth.BilayerCutoff)
			tests += k
		}
		if !sameEdgeSet(edges, whole) || tests != wholeTests {
			t.Fatalf("chunks of %d: %d edges and %d tests, whole scan %d and %d", chunk, len(edges), tests, len(whole), wholeTests)
		}
	}
}

// BenchmarkLeafletTiles times the tile kernels over the live tiles of a
// 32768-atom job and reports Dist2 tests per tile (the pairwise count
// for the pairwise kernel). The partial row times the whole tile body of
// Approach 4, cell-list edges plus partial components. Allocations are
// per pass over the live tiles. It gates nothing.
func BenchmarkLeafletTiles(b *testing.B) {
	coords, live := leafletColdTiles()
	cellTests, pairTests := 0, 0
	for _, t := range live {
		_, n := blockEdgesTree(coords, t, synth.BilayerCutoff)
		cellTests += n
		pairTests += pairwiseTests(t)
	}
	for _, k := range []struct {
		name   string
		tests  int
		kernel func(block)
	}{
		{"cells", cellTests, func(t block) { blockEdgesTree(coords, t, synth.BilayerCutoff) }},
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
