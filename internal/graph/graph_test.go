package graph

import (
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mdtask/internal/proptest"
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
	if len(uf.parent) != 4 {
		t.Fatalf("len = %d", len(uf.parent))
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

// Linking each node's neighbours to its set one Find per neighbour
// (UnionRoot from the node's root, the root carried from call to call)
// partitions the nodes as BFS does, and every returned root is a
// current representative of the node's set.
func TestUnionRootMatchesBFSQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(60))
			args[2] = reflect.ValueOf(r.Intn(120))
		},
	}
	f := func(seed uint64, n, m int) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		edges := randEdges(r, n, m)
		adj := Adjacency(n, edges)
		uf := NewUnionFind(n)
		for u, vs := range adj {
			root := uf.Find(int32(u))
			for _, v := range vs {
				root = uf.UnionRoot(root, v)
				if uf.parent[root] != root || uf.Find(int32(u)) != root || uf.Find(v) != root {
					return false
				}
			}
		}
		return slices.Equal(uf.Labels(), ComponentsBFS(n, edges))
	}
	proptest.Check(t, f, cfg)
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
		return slices.Equal(ComponentsBFS(n, edges), ComponentsUnionFind(n, edges))
	}
	proptest.Check(t, f, cfg)
}

// partialComponentsRef computes the components induced by a partial
// edge list by map and sort: only nodes on an edge, each component
// sorted, components ordered by first node (the map side of the
// paper's Approach 3).
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

func TestUnionFindReset(t *testing.T) {
	uf := NewUnionFind(8)
	uf.Union(0, 7)
	uf.Union(2, 3)
	uf.Reset(5)
	if len(uf.parent) != 5 {
		t.Fatalf("len = %d after Reset(5)", len(uf.parent))
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
			partials[i] = partialComponentsRef(es)
		}
		merged := MergeComponents(n, partials...)
		return slices.Equal(global, merged)
	}
	proptest.Check(t, f, cfg)
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

// groupsRef is the map-and-sort Groups that the O(n) walk replaced:
// bucket nodes by label, sort each bucket, then sort the buckets largest
// first with ties broken by smallest member.
func groupsRef(labels []int32) []Component {
	byLabel := make(map[int32]Component)
	for i, l := range labels {
		byLabel[l] = append(byLabel[l], int32(i))
	}
	out := make([]Component, 0, len(byLabel))
	for _, c := range byLabel {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// randomCanonicalLabels draws a canonical labeling of n nodes in one of
// four shapes: all singletons, one component, components of one shared
// size interleaved (every comparison a tie), or a random partition in
// which each node opens a component or joins an open one.
func randomCanonicalLabels(r *rand.Rand, n int) []int32 {
	labels := make([]int32, n)
	switch r.IntN(4) {
	case 0:
		for v := range labels {
			labels[v] = int32(v)
		}
	case 1: // one component: every label is 0
	case 2:
		k := 1 + r.IntN(max(n, 1)) // n mod k nodes form one smaller tail group
		for v := range labels {
			labels[v] = int32(v % k)
		}
	default:
		var roots []int32
		for v := range labels {
			if len(roots) == 0 || r.IntN(3) == 0 {
				roots = append(roots, int32(v))
				labels[v] = int32(v)
				continue
			}
			labels[v] = roots[r.IntN(len(roots))]
		}
	}
	return labels
}

// TestGroupsMatchesReference checks the O(n) Groups against groupsRef
// on random canonical labelings of up to 300 nodes, n = 0 included, and
// that every component it returns is capped at its length, so an append
// through one cannot reach the next.
func TestGroupsMatchesReference(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		labels := randomCanonicalLabels(r, int(n%301))
		if err := CheckLabels(labels); err != nil {
			t.Logf("generator drew a non-canonical labeling: %v", err)
			return false
		}
		got, want := Groups(labels), groupsRef(labels)
		if !reflect.DeepEqual(got, want) {
			t.Logf("labels %v:\n got %v\nwant %v", labels, got, want)
			return false
		}
		for _, c := range got {
			if cap(c) != len(c) {
				t.Logf("component %v has capacity %d", c, cap(c))
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, &quick.Config{MaxCount: 300})
	for _, labels := range [][]int32{nil, {}, {0}, {0, 1, 2, 3}, {0, 0, 0, 0}, {0, 1, 0, 1, 4, 4}} {
		if got, want := Groups(labels), groupsRef(labels); !reflect.DeepEqual(got, want) {
			t.Errorf("Groups(%v) = %v, want %v", labels, got, want)
		}
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

func TestMergeComponentsSingletons(t *testing.T) {
	// Nodes untouched by any partial stay singletons.
	labels := MergeComponents(5, []Component{{1, 3}})
	want := []int32{0, 1, 2, 1, 4}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
}
