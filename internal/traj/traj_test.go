package traj

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"mdtask/internal/linalg"
)

func randTraj(t *testing.T, seed uint64, nAtoms, nFrames int) *Trajectory {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, seed^0xABCD))
	tr := Alloc("test", nAtoms, nFrames)
	for f := range nFrames {
		tr.Times[f] = float64(f) * 2.5
		for i := range tr.FrameCoords(f) {
			tr.FrameCoords(f)[i] = linalg.Vec3{r.NormFloat64() * 10, r.NormFloat64() * 10, r.NormFloat64() * 10}
		}
	}
	return tr
}

func TestValidate(t *testing.T) {
	tr := randTraj(t, 1, 5, 3)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.Coords = tr.Coords[:len(tr.Coords)-2]
	if err := tr.Validate(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("err = %v, want ErrShapeMismatch", err)
	}
	tr.Coords, tr.Times = make([]linalg.Vec3, 5), make([]float64, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Trajectory{NAtoms: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted negative atom count")
	}
}

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	return &Trajectory{Name: t.Name, NAtoms: t.NAtoms, Coords: slices.Clone(t.Coords), Times: slices.Clone(t.Times)}
}

func TestCloneIndependence(t *testing.T) {
	tr := randTraj(t, 2, 4, 2)
	cl := tr.Clone()
	cl.Coords[0][0], cl.Times[0] = 999, 999
	if tr.Coords[0][0] == 999 || tr.Times[0] == 999 {
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

// TestEnsembleValidate: a ref ensemble validates when every member is
// non-nil, well shaped and has the first member's atom count, however
// many frames each has.
func TestEnsembleValidate(t *testing.T) {
	if err := (RefEnsemble{MemRef(randTraj(t, 4, 3, 2)), nil}).Validate(); err == nil {
		t.Fatal("Validate accepted nil member")
	}
	if err := (RefEnsemble{MemRef(randTraj(t, 5, 3, 2)), MemRef(randTraj(t, 6, 4, 2))}).Validate(); err == nil {
		t.Fatal("Validate accepted members of 3 and 4 atoms")
	}
	bad := randTraj(t, 7, 3, 2)
	bad.Coords = bad.Coords[:5]
	if err := (RefEnsemble{MemRef(bad)}).Validate(); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("Validate over 5 coords for 2 frames of 3 atoms: %v, want ErrShapeMismatch", err)
	}
	if err := (RefEnsemble{MemRef(randTraj(t, 8, 3, 2)), MemRef(randTraj(t, 9, 3, 5))}).Validate(); err != nil {
		t.Fatal(err)
	}
}
