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

// mergePartialSetsRef is the pseudo-edge merge mergePartialSets
// replaced, kept as its reference: every component becomes a star of
// edges (a self-loop for a singleton) and the union is re-componented.
func mergePartialSetsRef(a, b []graph.Component) []graph.Component {
	pseudo := make([]graph.Edge, 0, len(a)+len(b))
	collect := func(cs []graph.Component) {
		for _, c := range cs {
			for i := 1; i < len(c); i++ {
				pseudo = append(pseudo, graph.Edge{U: c[0], V: c[i]})
			}
			if len(c) == 1 {
				pseudo = append(pseudo, graph.Edge{U: c[0], V: c[0]})
			}
		}
	}
	collect(a)
	collect(b)
	return graph.PartialComponents(pseudo)
}

// bytePartials reads a canonical partial-component set from a byte
// string: each byte pair is an edge (equal bytes give a singleton).
func bytePartials(raw []byte) []graph.Component {
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{U: int32(raw[i]), V: int32(raw[i+1])})
	}
	return graph.PartialComponents(edges)
}

func cloneComps(cs []graph.Component) []graph.Component {
	out := slices.Clone(cs)
	for i, c := range out {
		out[i] = slices.Clone(c)
	}
	return out
}

// The merge must equal the pseudo-edge reference exactly — same
// components, sorted, in the same order, so the same wire bytes — and
// must leave both inputs as they were (it shares untouched components).
// Seeds in testdata/fuzz: empty sides, singletons, a chain joining many
// components, one all-covering component, identical sides.
func FuzzMergePartialSets(f *testing.F) {
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, b := bytePartials(rawA), bytePartials(rawB)
		wantA, wantB := cloneComps(a), cloneComps(b)
		got := mergePartialSets(a, b)
		want := mergePartialSetsRef(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merge(%v, %v) = %v, want %v", a, b, got, want)
		}
		if graph.ComponentBytes(got) != graph.ComponentBytes(want) {
			t.Fatalf("wire bytes %d, want %d", graph.ComponentBytes(got), graph.ComponentBytes(want))
		}
		if !reflect.DeepEqual(a, wantA) || !reflect.DeepEqual(b, wantB) {
			t.Fatal("merge modified its inputs")
		}
	})
}

// A merge whose output shares an input component must not let a later
// append through the output reach a neighbouring component.
func TestMergePartialSetsOutputsAreCapped(t *testing.T) {
	got := mergePartialSets(bytePartials([]byte{1, 2, 4, 5, 9, 9}), bytePartials([]byte{2, 3, 7, 8}))
	snapshot := cloneComps(got)
	for i := range got {
		_ = append(got[i], -1)
	}
	if !reflect.DeepEqual(got, snapshot) {
		t.Fatalf("append through one component changed another: %v, was %v", got, snapshot)
	}
}

// The fleet coordinator joins per-unit partials with FromPartials; over
// Run's own plan of a 1024-tile grid it must label every atom as Run
// does, and so must the full grid, whose extra tiles hold no edge.
func TestFromPartialsMatchesRun(t *testing.T) {
	sys := membrane(4096)
	const nTasks = 1024
	for _, tree := range []bool{false, true} {
		approach := ParallelCC
		if tree {
			approach = TreeSearch
		}
		want, err := Run(engine.NewSerial(nil), approach, sys.Coords, synth.BilayerCutoff, nTasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, specs := range [][]BlockSpec{
			LiveBlocks(sys.Coords, synth.BilayerCutoff, nTasks),
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
			if !Equal(got, want) || !reflect.DeepEqual(got.Components, want.Components) {
				t.Fatalf("tree=%v, %d tiles: FromPartials labels differ from Run", tree, len(specs))
			}
			if got.Stats.Edges != want.Stats.Edges {
				t.Errorf("tree=%v, %d tiles: edges %d, Run %d", tree, len(specs), got.Stats.Edges, want.Stats.Edges)
			}
		}
		if live := len(LiveBlocks(sys.Coords, synth.BilayerCutoff, nTasks)); want.Stats.Tasks != live {
			t.Errorf("tree=%v: Run ran %d tasks, the plan has %d live tiles", tree, want.Stats.Tasks, live)
		}
	}
}

// The merge scratch is pooled across the reduce's worker goroutines;
// dask folds partials concurrently (run under -race by make race).
func TestReduceOnConcurrentWorkersMatchesSerial(t *testing.T) {
	sys := membrane(4096)
	want := Serial(sys.Coords, synth.BilayerCutoff)
	for _, approach := range []Approach{ParallelCC, TreeSearch} {
		for range 3 {
			got, err := Run(dask.NewExecutor(dask.NewClient(4), nil), approach, sys.Coords, synth.BilayerCutoff, 256)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, want) || got.Stats.Edges != want.Stats.Edges {
				t.Fatalf("%v on 4 dask workers differs from Serial", approach)
			}
		}
	}
}
