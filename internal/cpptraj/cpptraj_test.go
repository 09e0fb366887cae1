package cpptraj

import (
	"math"
	mathrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

func TestBlockedMatchesNaiveQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(args []reflect.Value, r *mathrand.Rand) {
			args[0] = reflect.ValueOf(uint64(r.Int63()))
			args[1] = reflect.ValueOf(1 + r.Intn(15))
			args[2] = reflect.ValueOf(1 + r.Intn(40))
		},
	}
	f := func(seed uint64, atoms, frames int) bool {
		a := synth.Walk("a", atoms, frames, seed, 0)
		b := synth.Walk("b", atoms, frames, seed, 1)
		naive, err1 := Matrix2DRMS(a, b, Naive)
		blocked, err2 := Matrix2DRMS(a, b, Blocked)
		if err1 != nil || err2 != nil || len(naive) != len(blocked) {
			return false
		}
		for i := range naive {
			if math.Abs(naive[i]-blocked[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	proptest.Check(t, f, cfg)
}

func TestMatrixRejectsMismatchedAtoms(t *testing.T) {
	a := synth.Walk("a", 5, 3, 1, 0)
	b := synth.Walk("b", 6, 3, 1, 1)
	if _, err := Matrix2DRMS(a, b, Naive); err == nil {
		t.Fatal("mismatched atom counts accepted")
	}
	if _, err := Matrix2DRMS(a, a, Kernel(9)); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestKernelStrings(t *testing.T) {
	if Naive.String() != "GNU" {
		t.Errorf("Naive = %q", Naive.String())
	}
	if Blocked.String() == "unknown" || Kernel(7).String() != "unknown" {
		t.Error("kernel names wrong")
	}
}

func TestEmptyTrajectories(t *testing.T) {
	a := traj.Alloc("a", 3, 0)
	b := traj.Alloc("b", 3, 0)
	m, err := Matrix2DRMS(a, b, Blocked)
	if err != nil || len(m) != 0 {
		t.Errorf("empty matrix = %v, %v", m, err)
	}
}

func TestMatrix2DRMSShape(t *testing.T) {
	a := synth.Walk("a", 5, 4, 12, 0)
	b := synth.Walk("b", 5, 6, 12, 1)
	m, err := Matrix2DRMS(a, b, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != a.NFrames()*b.NFrames() {
		t.Fatalf("matrix len = %d", len(m))
	}
	// Spot check one element.
	if got, want := m[1*b.NFrames()+2], linalg.DRMS(a.FrameCoords(1), b.FrameCoords(2)); got != want {
		t.Errorf("m[1][2] = %v, want %v", got, want)
	}
}
