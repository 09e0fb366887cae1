package leaflet

import (
	"reflect"
	"slices"
	"testing"

	"mdtask/internal/dask"
	"mdtask/internal/engine"
	"mdtask/internal/graph"
	"mdtask/internal/synth"
)

// bytePartials reads a canonical partial-component set from a byte
// string: each byte pair is an edge (equal bytes give a singleton).
func bytePartials(raw []byte) []graph.Component {
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{U: int32(raw[i]), V: int32(raw[i+1])})
	}
	return partialComponentsRef(edges)
}

func cloneComps(cs []graph.Component) []graph.Component {
	out := slices.Clone(cs)
	for i, c := range out {
		out[i] = slices.Clone(c)
	}
	return out
}

// FromPartials, the one combine of Approaches 3 and 4, must label the
// atoms as a BFS over the components' pseudo-edges does — every
// component a star from its first node — and must leave both partial
// sets as they were (they are the tiles' own results). Seeds in
// testdata/fuzz: empty sides, singletons, a chain joining many
// components, one all-covering component, identical sides.
func FuzzMergePartialSets(f *testing.F) {
	const n = 256 // every node a byte can name
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := bytePartials(rawA), bytePartials(rawB)
		wantA, wantB := cloneComps(a), cloneComps(b)
		var stars []graph.Edge
		for _, c := range slices.Concat(a, b) {
			for _, v := range c[1:] {
				stars = append(stars, graph.Edge{U: c[0], V: v})
			}
		}
		stats := Stats{Tasks: 2, Edges: int64(len(rawA)/2 + len(rawB)/2)}
		got := FromPartials(n, [][]graph.Component{a, b}, stats)
		if want := graph.ComponentsBFS(n, stars); !slices.Equal(got.Labels, want) {
			t.Fatalf("FromPartials(%v, %v) labels %v, want %v", a, b, got.Labels, want)
		}
		if !reflect.DeepEqual(got.Components, graph.Groups(got.Labels)) || got.Stats != stats {
			t.Fatalf("FromPartials(%v, %v): components or stats do not follow its labels", a, b)
		}
		if !reflect.DeepEqual(a, wantA) || !reflect.DeepEqual(b, wantB) {
			t.Fatal("FromPartials modified its inputs")
		}
	})
}

// The staged engines compute each tile from its own chunks
// (ChunkPartial, under BlockPartial) and join the partials with
// FromPartials; over Run's own plan of a 1024-tile grid (for the tree
// approach, its cost plan) they must label every atom as Run does, and
// so must the fine grid's live tiles and the full grid, whose extra
// tiles hold no edge.
func TestFromPartialsMatchesRun(t *testing.T) {
	sys := membrane(4096)
	const nTasks = 1024
	for _, tree := range []bool{false, true} {
		approach := ParallelCC
		if tree {
			approach = TreeSearch
		}
		want, err := Run(engine.NewSerial(nil), approach, sys.Coords, synth.BilayerCutoff, nTasks, 1, engine.Env{})
		if err != nil {
			t.Fatal(err)
		}
		plan := Tiles(sys.Coords, synth.BilayerCutoff, nTasks, 1, tree)
		for _, specs := range [][]BlockSpec{
			plan,
			Tiles(sys.Coords, synth.BilayerCutoff, nTasks, 1, false),
			Blocks(len(sys.Coords), nTasks),
		} {
			partials := make([][]graph.Component, len(specs))
			var edges int64
			for i, b := range specs {
				var n int64
				partials[i], n = BlockPartial(sys.Coords, b, synth.BilayerCutoff, tree)
				edges += n
			}
			got := FromPartials(len(sys.Coords), partials, Stats{Tasks: len(specs), Edges: edges})
			if !slices.Equal(got.Labels, want.Labels) || !reflect.DeepEqual(got.Components, want.Components) {
				t.Fatalf("tree=%v, %d tiles: FromPartials labels differ from Run", tree, len(specs))
			}
			if got.Stats.Edges != want.Stats.Edges {
				t.Errorf("tree=%v, %d tiles: edges %d, Run %d", tree, len(specs), got.Stats.Edges, want.Stats.Edges)
			}
		}
		if want.Stats.Tasks != len(plan) {
			t.Errorf("tree=%v: Run ran %d tasks, the plan has %d tiles", tree, want.Stats.Tasks, len(plan))
		}
	}
}

// Four dask workers run the tile bodies concurrently, each on pooled
// tile scratch, and hand their partials to the one combine; the result
// must match Serial on every run (run under -race by make race).
func TestReduceOnConcurrentWorkersMatchesSerial(t *testing.T) {
	sys := membrane(4096)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	for _, approach := range []Approach{ParallelCC, TreeSearch} {
		for range 3 {
			got, err := Run(dask.NewExecutor(dask.NewClient(4), nil), approach, sys.Coords, synth.BilayerCutoff, 256, 4, engine.Env{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Labels, want.Labels) || got.Stats.Edges != want.Stats.Edges {
				t.Fatalf("%v on 4 dask workers differs from Serial", approach)
			}
		}
	}
}
