package traj

import (
	"math"
	"testing"

	"mdtask/internal/linalg"
)

func packTestTrajectory(t *testing.T) *Trajectory {
	t.Helper()
	return &Trajectory{Name: "p", NAtoms: 3, Times: []float64{0, 1, 2}, Coords: []linalg.Vec3{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 0},
		{0, 1, 0}, {1, 1, 0}, {2, 1, 0},
		{3, 1, 2}, {4, 1, 2}, {5, 1, 2},
	}}
}

func TestPackLayoutAndStats(t *testing.T) {
	tr := packTestTrajectory(t)
	p := Pack(tr)
	if p.NAtoms != 3 || p.NFrames != 3 {
		t.Fatalf("packed shape %dx%d", p.NFrames, p.NAtoms)
	}
	if len(p.Coords) != 3*3*3 {
		t.Fatalf("coords len %d", len(p.Coords))
	}
	for i := range tr.NFrames() {
		f := tr.FrameCoords(i)
		row := p.Row(i)
		for j, pt := range f {
			for k := 0; k < 3; k++ {
				if row[j*3+k] != pt[k] {
					t.Fatalf("frame %d atom %d axis %d: packed %v != %v", i, j, k, row[j*3+k], pt[k])
				}
			}
		}
		c, rg := linalg.FrameStats(row)
		if p.Centroids[i] != c || p.RadGyr[i] != rg {
			t.Errorf("frame %d stats %v, %v; FrameStats %v, %v", i, p.Centroids[i], p.RadGyr[i], c, rg)
		}
		// Integer coordinates: the mean is exact in any order.
		var sum linalg.Vec3
		for _, pt := range f {
			sum = sum.Add(pt)
		}
		if mean := sum.Scale(1.0 / 3); c != mean {
			t.Errorf("frame %d centroid %v, mean %v", i, c, mean)
		}
		var s float64
		for _, pt := range f {
			s += linalg.Dist2(pt, c)
		}
		if want := math.Sqrt(s / 3); math.Abs(rg-want) > 1e-15*want {
			t.Errorf("frame %d rg %v, serial %v", i, rg, want)
		}
	}
	if p.StepDRMS[0] != 0 {
		t.Errorf("StepDRMS[0] = %v", p.StepDRMS[0])
	}
	for i := 1; i < 3; i++ {
		want := linalg.DRMS(tr.FrameCoords(i-1), tr.FrameCoords(i))
		if p.StepDRMS[i] != want {
			t.Errorf("StepDRMS[%d] = %v, want %v", i, p.StepDRMS[i], want)
		}
	}
}

func TestPackedCacheAndInvalidation(t *testing.T) {
	tr := packTestTrajectory(t)
	p1 := tr.Packed()
	if p2 := tr.Packed(); p2 != p1 {
		t.Error("Packed not cached")
	}
	tr.Coords = append(tr.Coords, linalg.Vec3{9, 9, 9}, linalg.Vec3{8, 8, 8}, linalg.Vec3{7, 7, 7})
	tr.Times = append(tr.Times, 3)
	p3 := tr.Packed()
	if p3 == p1 {
		t.Fatal("Packed cache not invalidated by an appended frame")
	}
	if p3.NFrames != 4 {
		t.Fatalf("repacked NFrames = %d", p3.NFrames)
	}
}

func TestPackEmptyAndZeroAtoms(t *testing.T) {
	empty := Alloc("e", 5, 0)
	p := empty.Packed()
	if p.NFrames != 0 || len(p.Coords) != 0 {
		t.Fatalf("empty pack: %+v", p)
	}
	zero := Alloc("z", 0, 2)
	pz := zero.Packed()
	if pz.NFrames != 2 || pz.RadGyr[0] != 0 || pz.StepDRMS[1] != 0 {
		t.Fatalf("zero-atom pack: %+v", pz)
	}
	if got := len(pz.Row(1)); got != 0 {
		t.Fatalf("zero-atom row len %d", got)
	}
}
