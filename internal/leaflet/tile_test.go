package leaflet

import (
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
	"mdtask/internal/synth"
)

// partialComponentsRef is the map-and-sort reference for a tile's
// partial components: the components induced by an edge list, only
// nodes on an edge, each sorted, ordered by first node.
func partialComponentsRef(edges []graph.Edge) []graph.Component {
	if len(edges) == 0 {
		return nil
	}
	ids := make(map[int32]int32)
	var nodes []int32
	idOf := func(v int32) int32 {
		if id, ok := ids[v]; ok {
			return id
		}
		id := int32(len(nodes))
		ids[v] = id
		nodes = append(nodes, v)
		return id
	}
	compact := make([]graph.Edge, len(edges))
	for i, e := range edges {
		compact[i] = graph.Edge{U: idOf(e.U), V: idOf(e.V)}
	}
	uf := graph.NewUnionFind(len(nodes))
	for _, e := range compact {
		uf.Union(e.U, e.V)
	}
	groups := make(map[int32]graph.Component)
	for i := range nodes {
		r := uf.Find(int32(i))
		groups[r] = append(groups[r], nodes[i])
	}
	out := make([]graph.Component, 0, len(groups))
	for _, c := range groups {
		slices.Sort(c)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// tileRef is what the tile body must return on b: the map-and-sort
// reference over the pairwise scan's edges.
func tileRef(coords []linalg.Vec3, b block, cutoff float64) TilePartial {
	edges := blockEdgesBrute(coords, b, cutoff)
	return TilePartial{Comps: partialComponentsRef(edges), Edges: int64(len(edges))}
}

// On every live tile of a membrane in lattice and shuffled order, at the
// bilayer cutoff and twice it, the tile body's partial equals the
// reference exactly with either kernel: same components, same order,
// same edge count.
func TestTilePartialMatchesBrute(t *testing.T) {
	sys := membrane(6000)
	shuffled := append([]linalg.Vec3{}, sys.Coords...)
	r := rand.New(rand.NewPCG(5, 5))
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name   string
		coords []linalg.Vec3
	}{{"lattice", sys.Coords}, {"shuffled", shuffled}} {
		for _, cutoff := range []float64{synth.BilayerCutoff, 2 * synth.BilayerCutoff} {
			live := liveBlocks2D(order.coords, cutoff, 120)
			for _, b := range live {
				want := tileRef(order.coords, b, cutoff)
				for _, tree := range []bool{false, true} {
					got := tilePartial(b.rows.of(order.coords), b.cols.of(order.coords), b, cutoff, tree)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s cutoff %g tree=%v tile %+v: %d components over %d edges, reference %d over %d",
							order.name, cutoff, tree, b, len(got.Comps), got.Edges, len(want.Comps), want.Edges)
					}
				}
			}
		}
	}
}

// ChunkPartial, the staged unit's body, gets the tile's chunks as their
// own slices (copies, as a unit fetches them) and must return exactly
// what Run's tile body returns on every tile of the grid, live or not.
func TestChunkPartialMatchesTileBody(t *testing.T) {
	coords := membrane(3000).Coords
	for _, tree := range []bool{false, true} {
		for _, b := range blocks2D(len(coords), 66) {
			rows, cols := slices.Clone(b.rows.of(coords)), slices.Clone(b.cols.of(coords))
			spec := BlockSpec{RLo: b.rows.lo, RHi: b.rows.hi, CLo: b.cols.lo, CHi: b.cols.hi}
			got := ChunkPartial(engine.Env{}, rows, cols, spec, synth.BilayerCutoff, tree)
			want := tilePartial(b.rows.of(coords), b.cols.of(coords), b, synth.BilayerCutoff, tree)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tree=%v tile %+v: ChunkPartial %d components, tile body %d", tree, b, len(got.Comps), len(want.Comps))
			}
		}
	}
}

// The tile-local forest equals the reference on random tiles of a random
// gas, with either kernel: random sizes, tile and cutoff, so components
// chain across rows and columns in every shape.
func TestTileForestMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(400))
			args[2] = reflect.ValueOf(1 + r.Intn(30))
		},
	}
	f := func(seed uint64, n, maxTasks int) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		coords := make([]linalg.Vec3, n)
		for i := range coords {
			coords[i] = linalg.Vec3{r.Float64() * 20, r.Float64() * 20, r.Float64() * 20}
		}
		cutoff := 0.5 + 4*r.Float64()
		grid := blocks2D(n, maxTasks)
		b := grid[r.IntN(len(grid))]
		want := tileRef(coords, b, cutoff)
		for _, tree := range []bool{false, true} {
			if got := tilePartial(b.rows.of(coords), b.cols.of(coords), b, cutoff, tree); !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, cfg)
}

// Only atoms on an edge reach the partial, in global ids: on an
// off-diagonal tile a component joins two row atoms through a column
// atom, and a tile with no edge returns no components.
func TestTilePartialOnlyTouchedAtoms(t *testing.T) {
	coords := make([]linalg.Vec3, 23)
	for i, p := range map[int]linalg.Vec3{
		10: {0, 0, 0}, 11: {1.5, 0, 0}, 12: {50, 0, 0}, 13: {200, 0, 0}, // rows
		20: {0.75, 0, 0}, 21: {50.5, 0, 0}, 22: {300, 0, 0}, // cols
	} {
		coords[i] = p
	}
	rows, cols := span{10, 14}, span{20, 23}
	for _, tc := range []struct {
		b      block
		cutoff float64
		want   TilePartial
	}{
		{block{rows, cols}, 1, TilePartial{Comps: []graph.Component{{10, 11, 20}, {12, 21}}, Edges: 3}},
		{block{rows, rows}, 1.6, TilePartial{Comps: []graph.Component{{10, 11}}, Edges: 1}},
		{block{rows, cols}, 0.1, TilePartial{}},
	} {
		for _, tree := range []bool{false, true} {
			got := tilePartial(tc.b.rows.of(coords), tc.b.cols.of(coords), tc.b, tc.cutoff, tree)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("tree=%v tile %+v cutoff %g: %+v, want %+v", tree, tc.b, tc.cutoff, got, tc.want)
			}
		}
	}
}

// Components share one backing array; each is capped so an append
// through one cannot overwrite the next.
func TestTilePartialComponentsAreCapped(t *testing.T) {
	coords := []linalg.Vec3{{0, 0, 0}, {0.5, 0, 0}, {10, 0, 0}, {10.5, 0, 0}}
	b := block{span{0, 4}, span{0, 4}}
	tp := tilePartial(coords, coords, b, 1, true)
	if len(tp.Comps) != 2 {
		t.Fatalf("components = %v", tp.Comps)
	}
	_ = append(tp.Comps[0], 99)
	if !reflect.DeepEqual(tp.Comps[1], graph.Component{2, 3}) {
		t.Fatalf("append through comps[0] changed comps[1] to %v", tp.Comps[1])
	}
}

// A staged unit's spec must be a tile of the upper triangle: the tile
// body numbers rows before cols, which is global order only then.
func TestBlockSpecValidRefusesLowerTiles(t *testing.T) {
	for _, b := range Blocks(100, 10) {
		if err := b.Valid(100); err != nil {
			t.Fatalf("grid tile %+v refused: %v", b, err)
		}
	}
	for _, b := range []BlockSpec{
		{RLo: 50, RHi: 100, CLo: 0, CHi: 50}, // below the diagonal
		{RLo: 0, RHi: 60, CLo: 40, CHi: 100}, // overlapping chunks
		{RLo: 0, RHi: 50, CLo: 0, CHi: 60},   // overlapping, same start
		{RLo: 0, RHi: 50, CLo: 50, CHi: 101}, // out of range
	} {
		if b.Valid(100) == nil {
			t.Errorf("spec %+v accepted", b)
		}
	}
}
