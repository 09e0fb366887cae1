package hausdorff

import (
	"math"
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"mdtask/internal/linalg"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// distance is the uncounted symmetric Hausdorff distance of two
// trajectories.
func distance(a, b *traj.Trajectory, m Method) float64 { return DistanceCounted(a, b, m, nil) }

func randTrajs(seed uint64, n, atoms, frames int) []*traj.Trajectory {
	out := make([]*traj.Trajectory, n)
	for i := range out {
		out[i] = synth.Walk("t", atoms, frames, seed, uint64(i))
	}
	return out
}

func TestDistanceSelfZero(t *testing.T) {
	tr := synth.Walk("a", 20, 10, 1, 0)
	for _, m := range Methods {
		if got := distance(tr, tr, m); got != 0 {
			t.Errorf("%v H(a,a) = %v, want 0", m, got)
		}
	}
}

// The early-break optimization must be exact (Taha & Hanbury compute the
// same value as the naive scan).
func TestEarlyBreakEqualsNaiveQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(10))
			args[2] = reflect.ValueOf(1 + r.Intn(12))
		},
	}
	f := func(seed uint64, atoms, frames int) bool {
		ts := randTrajs(seed, 2, atoms, frames)
		return distance(ts[0], ts[1], Naive) == distance(ts[0], ts[1], EarlyBreak)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The Hausdorff distance over the dRMS metric is itself a metric on
// trajectories, so the triangle inequality must hold.
func TestTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	for trial := 0; trial < 50; trial++ {
		ts := randTrajs(uint64(r.Int64()), 3, 8, 6)
		dab := distance(ts[0], ts[1], Naive)
		dbc := distance(ts[1], ts[2], Naive)
		dac := distance(ts[0], ts[2], Naive)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle violated: %v > %v + %v", dac, dab, dbc)
		}
	}
}

func TestDirectedEmptySets(t *testing.T) {
	fr := [][]linalg.Vec3{{{1, 2, 3}}}
	if got := DirectedNaive(nil, fr); got != 0 {
		t.Errorf("h(empty->X) = %v, want 0", got)
	}
	if got := DirectedNaive(fr, nil); !math.IsInf(got, 1) {
		t.Errorf("h(X->empty) = %v, want +Inf", got)
	}
	if got := DirectedEarlyBreak(nil, fr); got != 0 {
		t.Errorf("early-break h(empty->X) = %v", got)
	}
}

func TestFromMatrixEqualsDirect(t *testing.T) {
	ts := randTrajs(11, 2, 12, 9)
	fa, fb := Frames(ts[0]), Frames(ts[1])
	m := Matrix2DRMS(fa, fb)
	want := DistanceFrames(fa, fb, Naive)
	got := FromMatrix(m, len(fa), len(fb))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("FromMatrix = %v, want %v", got, want)
	}
}

func TestFromMatrixEdgeCases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromMatrix accepted wrong dimensions")
		}
	}()
	FromMatrix(make([]float64, 5), 2, 3)
}

// Regression: FromMatrix and DistanceFrames must agree on empty inputs
// (FromMatrix used to return 0 for half-empty matrices while
// DistanceFrames returned +Inf).
func TestEmptyInputConsistency(t *testing.T) {
	ts := randTrajs(13, 1, 6, 5)
	nonEmpty := Frames(ts[0])
	inf := math.Inf(1)
	cases := []struct {
		name   string
		fa, fb [][]linalg.Vec3
		want   float64
	}{
		{"empty-A", nil, nonEmpty, inf},
		{"empty-B", nonEmpty, nil, inf},
		{"empty-both", nil, nil, 0},
	}
	for _, tc := range cases {
		for _, m := range Methods {
			if got := DistanceFrames(tc.fa, tc.fb, m); got != tc.want {
				t.Errorf("%s: DistanceFrames(%v) = %v, want %v", tc.name, m, got, tc.want)
			}
		}
		if got := FromMatrix(Matrix2DRMS(tc.fa, tc.fb), len(tc.fa), len(tc.fb)); got != tc.want {
			t.Errorf("%s: FromMatrix = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestMatrix2DRMSShape(t *testing.T) {
	ts := randTrajs(12, 2, 5, 4)
	fa, fb := Frames(ts[0]), Frames(ts[1])
	m := Matrix2DRMS(fa, fb)
	if len(m) != len(fa)*len(fb) {
		t.Fatalf("matrix len = %d", len(m))
	}
	// Spot check one element.
	if got, want := m[1*len(fb)+2], linalg.DRMS(fa[1], fb[2]); got != want {
		t.Errorf("m[1][2] = %v, want %v", got, want)
	}
}

func TestMethodString(t *testing.T) {
	if Naive.String() != "naive" || EarlyBreak.String() != "early-break" || Pruned.String() != "pruned" {
		t.Error("method names wrong")
	}
	if Method(99).String() != "unknown" {
		t.Error("unknown method name wrong")
	}
}

func TestParseMethod(t *testing.T) {
	for _, m := range Methods {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParseMethod(""); err != nil || got != Naive {
		t.Errorf("empty method: got %v, %v", got, err)
	}
	if _, err := ParseMethod("exact"); err == nil {
		t.Error("unknown method accepted")
	}
}

// Known-value check: two single-frame trajectories reduce Hausdorff to
// plain dRMS.
func TestSingleFrameReducesToDRMS(t *testing.T) {
	a := traj.New("a", 2)
	b := traj.New("b", 2)
	_ = a.AppendFrame(traj.Frame{Coords: []linalg.Vec3{{0, 0, 0}, {1, 0, 0}}})
	_ = b.AppendFrame(traj.Frame{Coords: []linalg.Vec3{{0, 1, 0}, {1, 1, 0}}})
	want := linalg.DRMS(a.Frames[0].Coords, b.Frames[0].Coords)
	if got := distance(a, b, Naive); got != want {
		t.Errorf("H = %v, want %v", got, want)
	}
}
