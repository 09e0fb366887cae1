package leaflet

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

// checkTile lays rows and cols out as two chunks of one coordinate set
// and asserts the plan's verdict on their off-diagonal tile: boxesApart
// says wantApart, planTiles keeps both diagonal tiles and the
// off-diagonal one exactly when it is not apart, and a dropped tile
// holds no edge by brute force.
func checkTile(t *testing.T, rows, cols []linalg.Vec3, cutoff float64, wantApart bool, wantEdges int) {
	t.Helper()
	coords := append(append([]linalg.Vec3{}, rows...), cols...)
	ch := []span{{0, len(rows)}, {len(rows), len(coords)}}
	off := block{rows: ch[0], cols: ch[1]}
	if got := boxesApart(boxOf(rows), boxOf(cols), cutoff); got != wantApart {
		t.Fatalf("boxesApart = %v, want %v", got, wantApart)
	}
	want := []block{{ch[0], ch[0]}, {ch[1], ch[1]}}
	if !wantApart {
		want = []block{{ch[0], ch[0]}, off, {ch[1], ch[1]}}
	}
	if got := planTiles(coords, ch, cutoff); !reflect.DeepEqual(got, want) {
		t.Fatalf("planTiles = %v, want %v", got, want)
	}
	brute := blockEdgesBrute(coords, off, cutoff)
	if len(brute) != wantEdges {
		t.Fatalf("brute edges = %d, want %d", len(brute), wantEdges)
	}
	if edges, _ := blockEdgesTree(coords, off, cutoff); !sameEdgeSet(edges, brute) {
		t.Fatalf("tree edges = %v, brute %v", edges, brute)
	}
}

// A gap of exactly cutoff is an edge (the kernels test Dist2 <= c²), so
// the plan must keep it; one ulp more and the tile is dropped — with no
// brute-force edge lost.
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
		// An empty chunk's inverted box is apart from every box.
		{"empty rows", nil, []linalg.Vec3{{0, 0, 0}}, cutoff, true, 0},
		{"empty cols", []linalg.Vec3{{0, 0, 0}}, nil, cutoff, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkTile(t, tc.rows, tc.cols, tc.cutoff, tc.apart, tc.wantEdges)
		})
	}

	// The plan keeps every diagonal tile, however far its atoms spread.
	pts := []linalg.Vec3{{0, 0, 0}, {1, 0, 0}, {100, 0, 0}}
	for _, ch := range [][]span{{{0, 3}}, {{0, 1}, {1, 2}, {2, 3}}} {
		got := planTiles(pts, ch, 2)
		for _, c := range ch {
			if !slices.Contains(got, block{rows: c, cols: c}) {
				t.Fatalf("chunks %v: plan %v drops diagonal tile %v", ch, got, c)
			}
		}
	}
}

// Over the full grid, every tile the plan drops holds no brute-force
// edge, and the tree kernel finds the brute-force edges on every tile,
// live or not: on the generator's lattice order, where most off-diagonal
// tiles are dropped, and on a shuffled order, where every chunk spans
// the membrane and nothing may be dropped.
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
			live := liveBlocks2D(order.coords, cutoff, nTasks)
			dropped := 0
			for _, b := range blocks2D(len(order.coords), nTasks) {
				want := blockEdgesBrute(order.coords, b, cutoff)
				if !slices.Contains(live, b) {
					dropped++
					if len(want) != 0 {
						t.Fatalf("seed %d %s tile %+v: dropped with %d brute edges", seed, order.name, b, len(want))
					}
				}
				if got, _ := blockEdgesTree(order.coords, b, cutoff); !sameEdgeSet(got, want) {
					t.Fatalf("seed %d %s tile %+v: %d tree edges, brute %d", seed, order.name, b, len(got), len(want))
				}
			}
			switch {
			case order.name == "shuffled" && dropped != 0:
				t.Errorf("seed %d: %d shuffled-order tiles dropped; their boxes overlap", seed, dropped)
			case order.name == "lattice" && dropped == 0:
				t.Errorf("seed %d: no lattice-order tile dropped", seed)
			}
		}
	}
}
