package traj

import (
	"errors"
	"math/rand/v2"
	"testing"

	"mdtask/internal/linalg"
)

func randTraj(t *testing.T, seed uint64, nAtoms, nFrames int) *Trajectory {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0xABCD))
	tr := New("test", nAtoms)
	for f := 0; f < nFrames; f++ {
		coords := make([]linalg.Vec3, nAtoms)
		for i := range coords {
			coords[i] = linalg.Vec3{r.NormFloat64() * 10, r.NormFloat64() * 10, r.NormFloat64() * 10}
		}
		if err := tr.AppendFrame(Frame{Time: float64(f) * 2.5, Coords: coords}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestAppendFrameValidatesShape(t *testing.T) {
	tr := New("x", 3)
	err := tr.AppendFrame(Frame{Coords: make([]linalg.Vec3, 2)})
	if !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("err = %v, want ErrShapeMismatch", err)
	}
	if err := tr.AppendFrame(Frame{Coords: make([]linalg.Vec3, 3)}); err != nil {
		t.Fatal(err)
	}
	if tr.NFrames() != 1 {
		t.Errorf("NFrames = %d", tr.NFrames())
	}
}

func TestValidate(t *testing.T) {
	tr := randTraj(t, 1, 5, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Frames[1].Coords = tr.Frames[1].Coords[:2]
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate accepted malformed trajectory")
	}
	bad := &Trajectory{NAtoms: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted negative atom count")
	}
}

// Clone returns a deep copy of the frame.
func (f Frame) Clone() Frame {
	c := make([]linalg.Vec3, len(f.Coords))
	copy(c, f.Coords)
	return Frame{Time: f.Time, Coords: c}
}

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	out := &Trajectory{Name: t.Name, NAtoms: t.NAtoms, Frames: make([]Frame, len(t.Frames))}
	for i, f := range t.Frames {
		out.Frames[i] = f.Clone()
	}
	return out
}

func TestCloneIndependence(t *testing.T) {
	tr := randTraj(t, 2, 4, 2)
	cl := tr.Clone()
	cl.Frames[0].Coords[0][0] = 999
	if tr.Frames[0].Coords[0][0] == 999 {
		t.Fatal("Clone shares coordinate storage")
	}
}

func TestBytes(t *testing.T) {
	tr := randTraj(t, 3, 10, 4)
	if got := tr.Bytes(); got != 10*4*24 {
		t.Errorf("Bytes = %d, want %d", got, 10*4*24)
	}
	ens := Ensemble{tr, tr}
	if got := RefsOf(ens).Bytes(); got != 2*tr.Bytes() {
		t.Errorf("RefEnsemble.Bytes = %d", got)
	}
}

func TestEnsembleValidate(t *testing.T) {
	ens := Ensemble{randTraj(t, 4, 3, 2), nil}
	if err := ens.Validate(); err == nil {
		t.Fatal("Validate accepted nil member")
	}
	ens = Ensemble{randTraj(t, 5, 3, 2), randTraj(t, 6, 4, 2)}
	if err := ens.Validate(); err != nil {
		t.Fatal(err)
	}
}
