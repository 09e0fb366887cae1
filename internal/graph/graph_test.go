package graph

import (
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestComponentsBFSSimple(t *testing.T) {
	// 0-1-2 connected, 3 isolated, 4-5 connected.
	edges := []Edge{{0, 1}, {1, 2}, {4, 5}}
	labels := ComponentsBFS(6, edges)
	want := []int32{0, 0, 0, 3, 4, 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	if err := CheckLabels(labels); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(4)
	if uf.Len() != 4 {
		t.Fatalf("Len = %d", uf.Len())
	}
	if !uf.Union(0, 1) {
		t.Error("first union reported no-op")
	}
	if uf.Union(1, 0) {
		t.Error("repeated union reported merge")
	}
	if uf.Find(0) != uf.Find(1) {
		t.Error("0 and 1 not merged")
	}
	if uf.Find(2) == uf.Find(0) {
		t.Error("2 spuriously merged")
	}
}

func randEdges(r *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int32(r.IntN(n)), int32(r.IntN(n))}
	}
	return edges
}

func TestBFSMatchesUnionFindQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(60))
			args[2] = reflect.ValueOf(r.Intn(120))
		},
	}
	f := func(seed uint64, n, m int) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		edges := randEdges(r, n, m)
		return EqualLabels(ComponentsBFS(n, edges), ComponentsUnionFind(n, edges))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPartialComponentsOnlyTouchedNodes(t *testing.T) {
	comps := PartialComponents([]Edge{{5, 7}, {7, 9}, {20, 21}})
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if !reflect.DeepEqual(comps[0], Component{5, 7, 9}) {
		t.Errorf("comp[0] = %v", comps[0])
	}
	if !reflect.DeepEqual(comps[1], Component{20, 21}) {
		t.Errorf("comp[1] = %v", comps[1])
	}
	if PartialComponents(nil) != nil {
		t.Error("empty edge list should produce nil")
	}
}

// partialComponentsRef is the map-and-sort PartialComponents the current
// one replaced, kept as its reference.
func partialComponentsRef(edges []Edge) []Component {
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
	compact := make([]Edge, len(edges))
	for i, e := range edges {
		compact[i] = Edge{idOf(e.U), idOf(e.V)}
	}
	uf := NewUnionFind(len(nodes))
	for _, e := range compact {
		uf.Union(e.U, e.V)
	}
	groups := make(map[int32]Component)
	for i := range nodes {
		r := uf.Find(int32(i))
		groups[r] = append(groups[r], nodes[i])
	}
	out := make([]Component, 0, len(groups))
	for _, c := range groups {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// PartialComponents equals the map-and-sort reference exactly, on edge
// lists whose endpoints are dense in their range (the table path) and
// sparse in it (the sort-and-search path), self-loops included.
func TestPartialComponentsMatchesReferenceQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(1<<(2+r.Intn(18))))
			args[2] = reflect.ValueOf(1 + r.Intn(200))
		},
	}
	f := func(seed uint64, n, m int) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		edges := randEdges(r, n, m)
		base := int32(r.IntN(1 << 20))
		for i := range edges {
			edges[i].U += base
			edges[i].V += base
		}
		return reflect.DeepEqual(PartialComponents(edges), partialComponentsRef(edges))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Components share one backing array; each is capped so an append
// through one cannot overwrite the next.
func TestPartialComponentsAreCapped(t *testing.T) {
	comps := PartialComponents([]Edge{{1, 2}, {3, 4}})
	_ = append(comps[0], 99)
	if !reflect.DeepEqual(comps[1], Component{3, 4}) {
		t.Fatalf("append through comps[0] changed comps[1] to %v", comps[1])
	}
}

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(8)
	uf.Union(0, 7)
	uf.Union(2, 3)
	uf.Reset(5)
	if uf.Len() != 5 {
		t.Fatalf("Len = %d after Reset(5)", uf.Len())
	}
	for i := int32(0); i < 5; i++ {
		if uf.Find(i) != i {
			t.Fatalf("node %d not a singleton after Reset", i)
		}
	}
	uf.Reset(12)
	if !reflect.DeepEqual(uf.Labels(), ComponentsBFS(12, nil)) {
		t.Fatal("grown forest is not all singletons")
	}
}

// Property: splitting the edge list into arbitrary partitions, computing
// partial components per partition, and merging must equal the global
// components (the correctness core of the paper's Approach 3).
func TestMergePartialsEqualsGlobalQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 150,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(2 + r.Intn(80))
			args[2] = reflect.ValueOf(r.Intn(160))
			args[3] = reflect.ValueOf(1 + r.Intn(8))
		},
	}
	f := func(seed uint64, n, m, parts int) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		edges := randEdges(r, n, m)
		global := ComponentsBFS(n, edges)

		partitioned := make([][]Edge, parts)
		for _, e := range edges {
			p := r.IntN(parts)
			partitioned[p] = append(partitioned[p], e)
		}
		partials := make([][]Component, parts)
		for i, es := range partitioned {
			partials[i] = PartialComponents(es)
		}
		merged := MergeComponents(n, partials...)
		return EqualLabels(global, merged)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGroupsOrdering(t *testing.T) {
	labels := ComponentsBFS(7, []Edge{{0, 1}, {2, 3}, {3, 4}, {5, 6}})
	groups := Groups(labels)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 3 {
		t.Errorf("largest group first, got %v", groups)
	}
	// Ties broken by smallest member: {0,1} before {5,6}.
	if groups[1][0] != 0 || groups[2][0] != 5 {
		t.Errorf("tie ordering wrong: %v", groups)
	}
}

func TestCheckLabels(t *testing.T) {
	if err := CheckLabels([]int32{0, 0, 2}); err != nil {
		t.Errorf("valid labels rejected: %v", err)
	}
	if err := CheckLabels([]int32{1, 1}); err == nil {
		t.Error("non-canonical labels accepted (node 0 labeled 1)")
	}
	if err := CheckLabels([]int32{5}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if err := CheckLabels([]int32{0, 0, 1}); err == nil {
		t.Error("label pointing at non-root accepted")
	}
}

func TestAdjacency(t *testing.T) {
	adj := Adjacency(4, []Edge{{0, 1}, {1, 2}, {3, 3}})
	if len(adj[1]) != 2 {
		t.Errorf("adj[1] = %v", adj[1])
	}
	if len(adj[3]) != 1 { // self loop kept once
		t.Errorf("adj[3] = %v", adj[3])
	}
}

func TestByteAccounting(t *testing.T) {
	if EdgeBytes(10) != 80 {
		t.Errorf("EdgeBytes = %d", EdgeBytes(10))
	}
	comps := []Component{{1, 2, 3}, {4}}
	if ComponentBytes(comps) != 16 {
		t.Errorf("ComponentBytes = %d", ComponentBytes(comps))
	}
}

func TestEqualLabels(t *testing.T) {
	if EqualLabels([]int32{0, 1}, []int32{0}) {
		t.Error("different lengths reported equal")
	}
	if !EqualLabels([]int32{0, 0}, []int32{0, 0}) {
		t.Error("equal labels reported different")
	}
}

func TestMergeComponentsSingletons(t *testing.T) {
	// Nodes untouched by any partial stay singletons.
	labels := MergeComponents(5, []Component{{1, 3}})
	want := []int32{0, 1, 2, 1, 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}
