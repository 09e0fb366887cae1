package balltree

import (
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
)

func randPoints(r *rand.Rand, n int, scale float64) []linalg.Vec3 {
	pts := make([]linalg.Vec3, n)
	for i := range pts {
		pts[i] = linalg.Vec3{r.Float64() * scale, r.Float64() * scale, r.Float64() * scale}
	}
	return pts
}

// queryRadius is QueryRadiusAppend in ascending index order, the order
// BruteRadius reports.
func queryRadius(t *Tree, q linalg.Vec3, radius float64) []int32 {
	out := t.QueryRadiusAppend(nil, q, radius)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestQueryRadiusMatchesBruteQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(r.Intn(300))
			args[2] = reflect.ValueOf(0.5 + 5*r.Float64())
		},
	}
	f := func(seed uint64, n int, radius float64) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		pts := randPoints(r, n, 10)
		tree := New(pts)
		q := linalg.Vec3{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10}
		got := queryRadius(tree, q, radius)
		want := BruteRadius(pts, q, radius)
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	proptest.Check(t, f, cfg)
}

func TestQueryRadiusLeafSizes(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	pts := randPoints(r, 500, 20)
	q := linalg.Vec3{10, 10, 10}
	want := BruteRadius(pts, q, 4)
	for _, leaf := range []int{1, 2, 8, 64, 1000} {
		tree := newLeafSize(pts, leaf)
		got := queryRadius(tree, q, 4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("leafSize=%d: got %d hits, want %d", leaf, len(got), len(want))
		}
	}
}

func TestQueryRadiusEmptyAndSingle(t *testing.T) {
	empty := New(nil)
	if got := queryRadius(empty, linalg.Vec3{}, 1); len(got) != 0 {
		t.Errorf("empty tree returned %v", got)
	}
	if len(empty.nodes) != 0 {
		t.Errorf("empty tree has %d nodes", len(empty.nodes))
	}
	single := New([]linalg.Vec3{{1, 1, 1}})
	if got := queryRadius(single, linalg.Vec3{1, 1, 1}, 0.1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single tree returned %v", got)
	}
	if got := queryRadius(single, linalg.Vec3{5, 5, 5}, 0.1); len(got) != 0 {
		t.Errorf("miss returned %v", got)
	}
}

func TestQueryRadiusAppendReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	pts := randPoints(r, 200, 5)
	tree := New(pts)
	buf := make([]int32, 0, 64)
	total := 0
	for i := range pts {
		buf = tree.QueryRadiusAppend(buf[:0], pts[i], 1.0)
		total += len(buf)
		// Every query must at least find the point itself.
		found := false
		for _, ix := range buf {
			if ix == int32(i) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("query %d did not find itself", i)
		}
	}
	if total < len(pts) {
		t.Error("implausibly few results")
	}
}

func TestDegeneratePoints(t *testing.T) {
	// All points identical: tree must still terminate and answer.
	pts := make([]linalg.Vec3, 100)
	tree := New(pts)
	if got := queryRadius(tree, linalg.Vec3{}, 0.5); len(got) != 100 {
		t.Fatalf("got %d hits, want 100", len(got))
	}
	// Collinear points.
	for i := range pts {
		pts[i] = linalg.Vec3{float64(i), 0, 0}
	}
	tree = New(pts)
	got := queryRadius(tree, linalg.Vec3{50, 0, 0}, 2.5)
	if len(got) != 5 {
		t.Fatalf("collinear: got %v", got)
	}
}
