package synth

import (
	"math"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

func TestWalkDeterministic(t *testing.T) {
	a := Walk("x", 10, 5, 42, 0)
	b := Walk("x", 10, 5, 42, 0)
	for f := range a.Frames {
		for i := range a.Frames[f].Coords {
			if a.Frames[f].Coords[i] != b.Frames[f].Coords[i] {
				t.Fatalf("frame %d atom %d differs between identical seeds", f, i)
			}
		}
	}
	c := Walk("x", 10, 5, 43, 0)
	if a.Frames[0].Coords[0] == c.Frames[0].Coords[0] {
		t.Error("different seeds produced identical first coordinates")
	}
}

func TestWalkShape(t *testing.T) {
	tr := Walk("w", 7, 9, 1, 2)
	if tr.NAtoms != 7 || tr.NFrames() != 9 {
		t.Fatalf("shape = %d/%d", tr.NAtoms, tr.NFrames())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Frames should evolve: consecutive frames differ but only slightly.
	d := linalg.DRMS(tr.Frames[0].Coords, tr.Frames[1].Coords)
	if d == 0 {
		t.Error("consecutive frames identical")
	}
	if d > 1 {
		t.Errorf("consecutive frames too far apart: dRMS=%v", d)
	}
}

func TestEnsemblePresets(t *testing.T) {
	if Small.NAtoms != 3341 || Medium.NAtoms != 6682 || Large.NAtoms != 13364 {
		t.Error("preset atom counts do not match the paper")
	}
	for _, p := range EnsemblePresets {
		if p.NFrames != 102 {
			t.Errorf("%s frames = %d, want 102", p.Name, p.NFrames)
		}
	}
	ens := Ensemble(EnsemblePreset{Name: "tiny", NAtoms: 5, NFrames: 3}, 4, 7)
	if len(ens) != 4 {
		t.Fatalf("ensemble size = %d", len(ens))
	}
	names := map[string]bool{}
	for _, tr := range ens {
		if names[tr.Name] {
			t.Errorf("duplicate name %s", tr.Name)
		}
		names[tr.Name] = true
	}
	// Members must differ from each other.
	if linalg.DRMS(ens[0].Frames[0].Coords, ens[1].Frames[0].Coords) == 0 {
		t.Error("ensemble members identical")
	}
}

func TestBilayerLeafletCounts(t *testing.T) {
	for _, n := range []int{2, 3, 100, 2048} {
		sys := Bilayer(n, 1)
		if len(sys.Coords) != n || len(sys.Leaflet) != n {
			t.Fatalf("n=%d: got %d coords", n, len(sys.Coords))
		}
		lo, hi := sys.CountLeaflets()
		if lo+hi != n || lo < hi || lo-hi > 1 {
			t.Fatalf("n=%d: leaflets %d/%d", n, lo, hi)
		}
	}
}

func TestBilayerSeparation(t *testing.T) {
	sys := Bilayer(2000, 3)
	// Minimum distance between leaflets must exceed the cutoff, so the
	// contact graph has exactly two components.
	var lower, upper []linalg.Vec3
	for i, p := range sys.Coords {
		if sys.Leaflet[i] == 0 {
			lower = append(lower, p)
		} else {
			upper = append(upper, p)
		}
	}
	minDist := math.Inf(1)
	for _, p := range upper {
		if d := linalg.MinDistPointSet(p, lower); d < minDist {
			minDist = d
		}
	}
	if minDist <= BilayerCutoff {
		t.Fatalf("leaflet separation %v <= cutoff %v", minDist, BilayerCutoff)
	}
}

func TestBilayerConnectivityWithinLeaflet(t *testing.T) {
	sys := Bilayer(512, 5)
	// Every atom should have at least one neighbor within the cutoff in
	// its own leaflet (no isolated atoms).
	for i, p := range sys.Coords {
		found := false
		for j, q := range sys.Coords {
			if i != j && sys.Leaflet[i] == sys.Leaflet[j] && linalg.Dist(p, q) <= BilayerCutoff {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("atom %d isolated within its leaflet", i)
		}
	}
}

func TestBilayerDeterministic(t *testing.T) {
	a := Bilayer(300, 9)
	b := Bilayer(300, 9)
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatal("bilayer not deterministic")
		}
	}
}

func TestBilayerPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bilayer accepted n=1")
		}
	}()
	Bilayer(1, 0)
}

func TestMembranePresets(t *testing.T) {
	want := map[string]int{"131k": 131072, "262k": 262144, "524k": 524288, "4M": 4_000_000}
	for _, p := range MembranePresets {
		if want[p.Name] != p.NAtoms {
			t.Errorf("preset %s = %d atoms, want %d", p.Name, p.NAtoms, want[p.Name])
		}
	}
}

// oldWalk and oldPathWalk are the generators as they were before Walk
// and PathWalk wrote into one contiguous backing per trajectory: a
// scratch configuration advanced in place and copied out per frame.
// They are the reference the rewrite must match bit for bit.
func oldWalk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	r := rng(seed, stream)
	const box, step, dt = 50.0, 0.15, 1.0
	t := traj.New(name, nAtoms)
	cur := make([]linalg.Vec3, nAtoms)
	for i := range cur {
		cur[i] = linalg.Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
	}
	for f := 0; f < nFrames; f++ {
		coords := make([]linalg.Vec3, nAtoms)
		copy(coords, cur)
		t.Frames = append(t.Frames, traj.Frame{Time: float64(f) * dt, Coords: coords})
		for i := range cur {
			cur[i][0] += r.NormFloat64() * step
			cur[i][1] += r.NormFloat64() * step
			cur[i][2] += r.NormFloat64() * step
		}
	}
	return t
}

func oldPathWalk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	const box, drift, jitter, dt = 50.0, 1.0, 0.15, 1.0
	base := rng(seed, 0x9A7B)
	start := make([]linalg.Vec3, nAtoms)
	for i := range start {
		start[i] = linalg.Vec3{base.Float64() * box, base.Float64() * box, base.Float64() * box}
	}
	r := rng(seed, stream^0x5EED)
	dir := linalg.Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale(drift / n)
	}
	t := traj.New(name, nAtoms)
	cur := make([]linalg.Vec3, nAtoms)
	copy(cur, start)
	for f := 0; f < nFrames; f++ {
		coords := make([]linalg.Vec3, nAtoms)
		copy(coords, cur)
		t.Frames = append(t.Frames, traj.Frame{Time: float64(f) * dt, Coords: coords})
		for i := range cur {
			cur[i] = cur[i].Add(dir)
			cur[i][0] += r.NormFloat64() * jitter
			cur[i][1] += r.NormFloat64() * jitter
			cur[i][2] += r.NormFloat64() * jitter
		}
	}
	return t
}

// TestWalkMatchesOldLoopBitForBit pins both generators to their old
// per-frame-copy loops: same shape, same times, same float64 bits.
func TestWalkMatchesOldLoopBitForBit(t *testing.T) {
	gens := []struct {
		name     string
		new, old func(string, int, int, uint64, uint64) *traj.Trajectory
	}{
		{"Walk", Walk, oldWalk},
		{"PathWalk", PathWalk, oldPathWalk},
	}
	shapes := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {7, 1}, {3, 9}, {64, 17}, {1024, 4}}
	for _, g := range gens {
		for _, sh := range shapes {
			for _, stream := range []uint64{0, 3} {
				got := g.new("x", sh[0], sh[1], 1000, stream)
				want := g.old("x", sh[0], sh[1], 1000, stream)
				if got.NAtoms != want.NAtoms || got.NFrames() != want.NFrames() {
					t.Fatalf("%s %v: shape %d×%d, want %d×%d", g.name, sh, got.NAtoms, got.NFrames(), want.NAtoms, want.NFrames())
				}
				for f := range want.Frames {
					gf, wf := got.Frames[f], want.Frames[f]
					if math.Float64bits(gf.Time) != math.Float64bits(wf.Time) || len(gf.Coords) != len(wf.Coords) {
						t.Fatalf("%s %v frame %d: time %v/%d coords, want %v/%d", g.name, sh, f, gf.Time, len(gf.Coords), wf.Time, len(wf.Coords))
					}
					for i := range wf.Coords {
						for c := 0; c < 3; c++ {
							if math.Float64bits(gf.Coords[i][c]) != math.Float64bits(wf.Coords[i][c]) {
								t.Fatalf("%s %v frame %d atom %d axis %d: %v, want %v", g.name, sh, f, i, c, gf.Coords[i][c], wf.Coords[i][c])
							}
						}
					}
				}
			}
		}
	}
}

// TestWalkFramesIndependent: frames share one backing, but an append
// to one frame must never write into the next.
func TestWalkFramesIndependent(t *testing.T) {
	tr := Walk("x", 4, 3, 1, 0)
	next := tr.Frames[1].Coords[0]
	_ = append(tr.Frames[0].Coords, linalg.Vec3{-1, -1, -1})
	if tr.Frames[1].Coords[0] != next {
		t.Fatal("append to frame 0 overwrote frame 1")
	}
}
