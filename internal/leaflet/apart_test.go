package leaflet

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// offTile lays rows and cols out as one coordinate set and returns the
// off-diagonal tile that compares them.
func offTile(rows, cols []linalg.Vec3) ([]linalg.Vec3, block) {
	coords := append(append([]linalg.Vec3{}, rows...), cols...)
	return coords, block{rows: span{0, len(rows)}, cols: span{len(rows), len(coords)}}
}

// checkTile asserts that the bound's verdict is the expected one, that a
// skipped tile holds no edge by brute force, and that blockEdges with
// either kernel finds exactly the brute-force edges.
func checkTile(t *testing.T, coords []linalg.Vec3, b block, cutoff float64, wantApart bool, wantEdges int) {
	t.Helper()
	if got := tileApart(coords, b, cutoff); got != wantApart {
		t.Fatalf("tileApart = %v, want %v", got, wantApart)
	}
	brute := blockEdgesBrute(coords, b, cutoff)
	if len(brute) != wantEdges {
		t.Fatalf("brute edges = %d, want %d", len(brute), wantEdges)
	}
	for _, tree := range []bool{false, true} {
		edges, apart := blockEdges(coords, b, cutoff, tree)
		if apart != wantApart || !sameEdgeSet(edges, brute) {
			t.Fatalf("tree=%v: blockEdges = %v (apart %v), brute %v", tree, edges, apart, brute)
		}
	}
}

// A gap of exactly cutoff is an edge (the kernels test Dist2 <= c²), so
// the bound must not skip it; one ulp more and the tile is skipped —
// with no brute-force edge lost.
func TestTileApartIsExact(t *testing.T) {
	const cutoff = 15.0
	over := math.Nextafter(cutoff, math.Inf(1))
	if over*over <= cutoff*cutoff {
		t.Fatal("one ulp over the cutoff does not square above it")
	}
	// The row box spans several atoms so its faces come from different
	// atoms; the column atoms sit beyond its x = 0.5 face.
	rows := []linalg.Vec3{{0.5, 1, 2}, {-3, 4, 2}, {0, 2, -1}}
	shift := func(dx, dy, dz float64) []linalg.Vec3 {
		return []linalg.Vec3{{0.5 + dx, 1 + dy, 2 + dz}, {0.5 + dx + 7, 3 + dy, 2 + dz}}
	}
	for _, tc := range []struct {
		name      string
		rows      []linalg.Vec3
		cols      []linalg.Vec3
		cutoff    float64
		apart     bool
		wantEdges int
	}{
		{"x gap = cutoff", rows, shift(cutoff, 0, 0), cutoff, false, 1},
		{"x gap = cutoff + ulp", []linalg.Vec3{{0, 1, 2}, {-3, 4, 2}}, []linalg.Vec3{{over, 1, 2}, {over + 7, 3, 2}}, cutoff, true, 0},
		// The column box below the row box (the other switch branch).
		{"-z gap = cutoff", []linalg.Vec3{{1, 1, cutoff}, {2, 5, cutoff + 4}}, []linalg.Vec3{{1, 1, 0}, {9, 9, -2}}, cutoff, false, 1},
		{"-z gap = cutoff + ulp", []linalg.Vec3{{1, 1, over}, {2, 5, over + 4}}, []linalg.Vec3{{1, 1, 0}, {9, 9, -2}}, cutoff, true, 0},
		// Diagonal gaps: 3-4-5 in the plane and 1-2-2-3 in space are exact.
		{"xy gap = 5", []linalg.Vec3{{0, 0, 0}, {-1, -1, 0}}, []linalg.Vec3{{3, 4, 0}, {6, 9, 0}}, 5, false, 1},
		{"xy gap = 5 + ulp", []linalg.Vec3{{0, 0, 0}, {-1, -1, 0}}, []linalg.Vec3{{3, math.Nextafter(4, 5), 0}, {6, 9, 0}}, 5, true, 0},
		{"xyz gap = 3", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{1, 2, 2}}, 3, false, 1},
		{"xyz gap = 3 + ulp", []linalg.Vec3{{0, 0, 0}}, []linalg.Vec3{{1, 2, math.Nextafter(2, 3)}}, 3, true, 0},
		// Boxes that overlap on one axis but not another are boxed apart
		// by the other axis alone.
		{"overlap x, gap y", []linalg.Vec3{{0, 0, 0}, {10, 0, 0}}, []linalg.Vec3{{5, 20, 0}}, cutoff, true, 0},
		{"overlapping boxes", []linalg.Vec3{{0, 0, 0}, {40, 40, 0}}, []linalg.Vec3{{20, 20, 0}}, cutoff, false, 0},
		{"1-atom spans at cutoff", []linalg.Vec3{{2, 2, 2}}, []linalg.Vec3{{2, 2 + cutoff, 2}}, cutoff, false, 1},
		{"empty rows", nil, []linalg.Vec3{{0, 0, 0}}, cutoff, true, 0},
		{"empty cols", []linalg.Vec3{{0, 0, 0}}, nil, cutoff, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coords, b := offTile(tc.rows, tc.cols)
			checkTile(t, coords, b, tc.cutoff, tc.apart, tc.wantEdges)
		})
	}

	// A diagonal tile's boxes coincide: it is never skipped, whatever its
	// size, and a 1-atom or empty one simply has no pair.
	pts := []linalg.Vec3{{0, 0, 0}, {1, 0, 0}, {100, 0, 0}}
	checkTile(t, pts, block{rows: span{0, 3}, cols: span{0, 3}}, 2, false, 1)
	checkTile(t, pts, block{rows: span{2, 3}, cols: span{2, 3}}, 2, false, 0)
	checkTile(t, pts, block{rows: span{1, 1}, cols: span{1, 1}}, 2, true, 0)
}

// Per tile, blockEdges (bound first, then either kernel) equals the
// unbounded brute-force scan: on the generator's lattice order, where
// most off-diagonal tiles are boxed apart, and on a shuffled order,
// where every chunk spans the membrane and nothing may be skipped.
func TestBlockEdgesMatchBruteEveryTile(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewPCG(seed, 7))
		sys := synth.Bilayer(1500+r.IntN(1500), seed)
		shuffled := append([]linalg.Vec3{}, sys.Coords...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		cutoff := synth.BilayerCutoff * (0.5 + r.Float64())
		nTasks := 16 + r.IntN(80)
		for _, order := range []struct {
			name   string
			coords []linalg.Vec3
		}{{"lattice", sys.Coords}, {"shuffled", shuffled}} {
			skipped := 0
			for _, b := range blocks2D(len(order.coords), nTasks) {
				want := blockEdgesBrute(order.coords, b, cutoff)
				for _, tree := range []bool{false, true} {
					got, apart := blockEdges(order.coords, b, cutoff, tree)
					if apart && (len(want) != 0 || got != nil) {
						t.Fatalf("seed %d %s tile %+v: skipped with %d brute edges", seed, order.name, b, len(want))
					}
					if !tree && !apart && !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %s tile %+v: pairwise edges differ from brute", seed, order.name, b)
					}
					if !sameEdgeSet(got, want) {
						t.Fatalf("seed %d %s tile %+v tree=%v: %d edges, brute %d", seed, order.name, b, tree, len(got), len(want))
					}
					if apart && !tree {
						skipped++
					}
				}
			}
			switch {
			case order.name == "shuffled" && skipped != 0:
				t.Errorf("seed %d: %d shuffled-order tiles skipped; their boxes overlap", seed, skipped)
			case order.name == "lattice" && skipped == 0:
				t.Errorf("seed %d: no lattice-order tile skipped", seed)
			}
		}
	}
}
