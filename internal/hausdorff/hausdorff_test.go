package hausdorff

import (
	"math"
	mathrand "math/rand"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// distance is the uncounted symmetric Hausdorff distance of two
// trajectories.
func distance(a, b *traj.Trajectory, m Method) float64 { return DistanceCounted(a, b, m, nil) }

// clone is a deep copy of a trajectory, for tests that need two
// distinct trajectories holding the same frames.
func clone(t *traj.Trajectory) *traj.Trajectory {
	out := &traj.Trajectory{Name: t.Name, NAtoms: t.NAtoms, Frames: make([]traj.Frame, len(t.Frames))}
	for i, f := range t.Frames {
		out.Frames[i] = traj.Frame{Time: f.Time, Coords: slices.Clone(f.Coords)}
	}
	return out
}

// frames is the coordinate view of a trajectory's frames (no copying).
func frames(t *traj.Trajectory) [][]linalg.Vec3 {
	out := make([][]linalg.Vec3, len(t.Frames))
	for i := range t.Frames {
		out[i] = t.Frames[i].Coords
	}
	return out
}

// refDirected is the reference every kernel is checked against: the
// paper's Algorithm 1, h(A→B) = max over a in A of min over b in B of
// dRMS(a, b), over frame views and linalg.DRMS. It shares no code with
// the kernels, which all read traj.Packed rows through
// linalg.DRMSWithin, so a defect in the production naive cannot reach
// both sides of a comparison. It returns 0 when A is empty and +Inf
// when A is non-empty but B is empty.
func refDirected(a, b [][]linalg.Vec3) float64 {
	var cmax float64
	for _, fa := range a {
		cmin := math.Inf(1)
		for _, fb := range b {
			if d := linalg.DRMS(fa, fb); d < cmin {
				cmin = d
			}
		}
		if cmin > cmax {
			cmax = cmin
		}
	}
	return cmax
}

// refDistance is the reference symmetric distance H(A,B).
func refDistance(a, b *traj.Trajectory) float64 {
	fa, fb := frames(a), frames(b)
	return math.Max(refDirected(fa, fb), refDirected(fb, fa))
}

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

// The naive scan and the early-break optimization must be exact (Taha &
// Hanbury compute the same value as Algorithm 1).
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
		want := refDistance(ts[0], ts[1])
		return distance(ts[0], ts[1], Naive) == want && distance(ts[0], ts[1], EarlyBreak) == want
	}
	proptest.Check(t, f, cfg)
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
	fr := traj.New("x", 1)
	if err := fr.AppendFrame(traj.Frame{Coords: []linalg.Vec3{{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	empty, full := traj.New("e", 1).Packed(), fr.Packed()
	if got := refDirected(nil, frames(fr)); got != 0 {
		t.Errorf("reference h(empty->X) = %v, want 0", got)
	}
	if got := refDirected(frames(fr), nil); !math.IsInf(got, 1) {
		t.Errorf("reference h(X->empty) = %v, want +Inf", got)
	}
	if got := directedNaive(empty, full, nil); got != 0 {
		t.Errorf("h(empty->X) = %v, want 0", got)
	}
	if got := directedNaive(full, empty, nil); !math.IsInf(got, 1) {
		t.Errorf("h(X->empty) = %v, want +Inf", got)
	}
	if got := directedEarlyBreak(empty, full, 0, nil); got != 0 {
		t.Errorf("early-break h(empty->X) = %v", got)
	}
}

// Every method follows one empty-input convention: 0 when both
// trajectories are empty, +Inf when exactly one is.
func TestEmptyInputConsistency(t *testing.T) {
	nonEmpty := randTrajs(13, 1, 6, 5)[0]
	inf := math.Inf(1)
	cases := []struct {
		name string
		a, b *traj.Trajectory
		want float64
	}{
		{"empty-A", traj.New("e", 6), nonEmpty, inf},
		{"empty-B", nonEmpty, traj.New("e", 6), inf},
		{"empty-both", traj.New("e", 6), traj.New("f", 6), 0},
	}
	for _, tc := range cases {
		if got := refDistance(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: reference = %v, want %v", tc.name, got, tc.want)
		}
		for _, m := range Methods {
			if got := distance(tc.a, tc.b, m); got != tc.want {
				t.Errorf("%s: %v = %v, want %v", tc.name, m, got, tc.want)
			}
		}
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
	for _, m := range Methods {
		if got := distance(a, b, m); got != want {
			t.Errorf("%v: H = %v, want %v", m, got, want)
		}
	}
}
