package leaflet

import (
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"mdtask/internal/graph"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
)

func membrane(n int) *synth.BilayerSystem { return synth.Bilayer(n, 4242) }

func TestSerialFindsTwoLeaflets(t *testing.T) {
	sys := membrane(2048)
	res := Serial(sys.Coords, synth.BilayerCutoff)
	if len(res.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(res.Components))
	}
	// The two components must match the generator's ground truth.
	for i, l := range sys.Leaflet {
		sameAsFirst := res.Labels[i] == res.Labels[0]
		if (l == sys.Leaflet[0]) != sameAsFirst {
			t.Fatalf("atom %d assigned to wrong leaflet", i)
		}
	}
	lo, hi := sys.CountLeaflets()
	if len(res.Components[0]) != lo && len(res.Components[0]) != hi {
		t.Errorf("component sizes %d/%d vs ground truth %d/%d",
			len(res.Components[0]), len(res.Components[1]), lo, hi)
	}
}

func TestSerialOnGas(t *testing.T) {
	// A dilute random gas with a tiny cutoff: mostly singletons; the
	// result must still be a valid canonical labeling.
	r := rand.New(rand.NewPCG(1, 2))
	pts := make([]linalg.Vec3, 500)
	for i := range pts {
		pts[i] = linalg.Vec3{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
	}
	res := Serial(pts, 5)
	if err := graph.CheckLabels(res.Labels); err != nil {
		t.Fatal(err)
	}
}

// Every unordered pair must be examined by exactly one 2-D block.
func TestBlocks2DPairCoverageQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(1 + r.Intn(60))
			args[1] = reflect.ValueOf(1 + r.Intn(40))
		},
	}
	f := func(n, maxTasks int) bool {
		blocks := blocks2D(n, maxTasks)
		if len(blocks) > maxTasks && maxTasks >= 1 {
			return false
		}
		count := make(map[[2]int]int)
		for _, b := range blocks {
			if b.rows == b.cols {
				for i := b.rows.lo; i < b.rows.hi; i++ {
					for j := i + 1; j < b.rows.hi; j++ {
						count[[2]int{i, j}]++
					}
				}
			} else {
				for i := b.rows.lo; i < b.rows.hi; i++ {
					for j := b.cols.lo; j < b.cols.hi; j++ {
						a, bb := i, j
						if a > bb {
							a, bb = bb, a
						}
						count[[2]int{a, bb}]++
					}
				}
			}
		}
		want := n * (n - 1) / 2
		if len(count) != want {
			return false
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestChunks1DCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, parts := range []int{1, 3, 7, 200} {
			ch := chunks1D(n, parts)
			pos := 0
			for _, s := range ch {
				if s.lo != pos {
					t.Fatalf("n=%d parts=%d: gap at %d", n, parts, s.lo)
				}
				pos = s.hi
			}
			if pos != n {
				t.Fatalf("n=%d parts=%d: ends at %d", n, parts, pos)
			}
		}
	}
}

func TestTreeEdgesMatchBruteEdges(t *testing.T) {
	sys := membrane(1024)
	blocks := blocks2D(len(sys.Coords), 12)
	for _, b := range blocks {
		brute := blockEdgesBrute(sys.Coords, b, synth.BilayerCutoff)
		tree := blockEdgesTree(sys.Coords, b, synth.BilayerCutoff)
		if !sameEdgeSet(brute, tree) {
			t.Fatalf("block %+v: tree edges differ from brute (%d vs %d)",
				b, len(brute), len(tree))
		}
	}
}

func sameEdgeSet(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	norm := func(e graph.Edge) graph.Edge {
		if e.U > e.V {
			return graph.Edge{U: e.V, V: e.U}
		}
		return e
	}
	set := make(map[graph.Edge]int, len(a))
	for _, e := range a {
		set[norm(e)]++
	}
	for _, e := range b {
		set[norm(e)]--
	}
	for _, c := range set {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestRowChunkEdgesCoverUpperTriangle(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	pts := make([]linalg.Vec3, 80)
	for i := range pts {
		pts[i] = linalg.Vec3{r.Float64() * 20, r.Float64() * 20, r.Float64() * 20}
	}
	const cutoff = 5.0
	var all []graph.Edge
	for _, s := range chunks1D(len(pts), 7) {
		all = append(all, rowChunkEdges(pts, s, cutoff)...)
	}
	want := PairsAsEdges(linalg.PairsWithinSelf(pts, cutoff))
	if !sameEdgeSet(all, want) {
		t.Fatalf("1-D chunked edges (%d) differ from global (%d)", len(all), len(want))
	}
}

// PairsAsEdges converts index pairs to edges (test helper).
func PairsAsEdges(pairs [][2]int32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{U: p[0], V: p[1]}
	}
	return out
}

func TestMergePartialSets(t *testing.T) {
	a := []graph.Component{{1, 2}, {5}}
	b := []graph.Component{{2, 3}, {8, 9}}
	got := mergePartialSets(a, b)
	// {1,2}+{2,3} -> {1,2,3}; {5}; {8,9}
	if len(got) != 3 {
		t.Fatalf("merged = %v", got)
	}
	if !reflect.DeepEqual(got[0], graph.Component{1, 2, 3}) {
		t.Errorf("merged[0] = %v", got[0])
	}
	if !reflect.DeepEqual(got[1], graph.Component{5}) {
		t.Errorf("merged[1] = %v (singleton must survive)", got[1])
	}
}

func TestLabelsFromComponents(t *testing.T) {
	labels := labelsFromComponents(6, []graph.Component{{1, 4}, {2, 5}})
	want := []int32{0, 1, 2, 3, 1, 2}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}

func TestPlanHelpers(t *testing.T) {
	dims := Plan2D(100, 10)
	if len(dims) == 0 || len(dims) > 10 {
		t.Fatalf("Plan2D returned %d blocks", len(dims))
	}
	var totalPairs int64
	for _, d := range dims {
		if d.Diagonal {
			totalPairs += int64(d.Rows) * int64(d.Rows-1) / 2
		} else {
			totalPairs += int64(d.Rows) * int64(d.Cols)
		}
	}
	if totalPairs != 100*99/2 {
		t.Errorf("Plan2D pairs = %d, want %d", totalPairs, 100*99/2)
	}
	lens, pairs := Plan1D(100, 8)
	var sumLen int
	var sumPairs int64
	for i := range lens {
		sumLen += lens[i]
		sumPairs += pairs[i]
	}
	if sumLen != 100 || sumPairs != 100*99/2 {
		t.Errorf("Plan1D sums = %d atoms, %d pairs", sumLen, sumPairs)
	}
}

func TestSampleDataMovement(t *testing.T) {
	sys := membrane(2048)
	st := SampleDataMovement(sys.Coords, synth.BilayerCutoff, 32)
	if st.Edges <= 0 || st.ShuffleBytes <= 0 || st.Tasks <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Component ids crossing the shuffle must be far fewer bytes than
	// the edge list (the point of Approach 3).
	if st.ShuffleBytes >= graph.EdgeBytes(int(st.Edges)) {
		t.Errorf("component shuffle %d B not smaller than edges %d B",
			st.ShuffleBytes, graph.EdgeBytes(int(st.Edges)))
	}
	// It runs only the plan's live tiles; the profile must not notice
	// the dropped ones.
	want := Stats{Tasks: len(liveBlocks2D(sys.Coords, synth.BilayerCutoff, 32))}
	for _, b := range blocks2D(len(sys.Coords), 32) {
		edges := blockEdgesTree(sys.Coords, b, synth.BilayerCutoff)
		want.Edges += int64(len(edges))
		want.ShuffleBytes += graph.ComponentBytes(graph.PartialComponents(edges))
	}
	if st != want {
		t.Errorf("stats = %+v, unbounded tiles give %+v", st, want)
	}
}

func TestCoordBytes(t *testing.T) {
	if CoordBytes(100) != 2400 {
		t.Errorf("CoordBytes = %d", CoordBytes(100))
	}
}

func TestApproachStrings(t *testing.T) {
	for _, a := range Approaches {
		if a.String() == "" || a.String() == "Approach(0)" {
			t.Errorf("approach %d has bad name", int(a))
		}
	}
	if Approach(9).String() != "Approach(9)" {
		t.Error("unknown approach string")
	}
}

func TestRecommended(t *testing.T) {
	if Recommended(131_072) != ParallelCC || Recommended(262_144) != ParallelCC {
		t.Error("small systems should use pairwise distances (Approach 3)")
	}
	if Recommended(524_288) != TreeSearch || Recommended(4_000_000) != TreeSearch {
		t.Error("large systems should use the tree search (Approach 4)")
	}
}
