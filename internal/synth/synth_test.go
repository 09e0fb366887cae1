package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

func TestWalkDeterministic(t *testing.T) {
	a := Walk("x", 10, 5, 42, 0)
	b := Walk("x", 10, 5, 42, 0)
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			t.Fatalf("frame %d atom %d differs between identical seeds", i/a.NAtoms, i%a.NAtoms)
		}
	}
	c := Walk("x", 10, 5, 43, 0)
	if a.Coords[0] == c.Coords[0] {
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
	d := linalg.DRMS(tr.FrameCoords(0), tr.FrameCoords(1))
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
	if linalg.DRMS(ens[0].FrameCoords(0), ens[1].FrameCoords(0)) == 0 {
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
		for _, q := range lower {
			minDist = math.Min(minDist, linalg.Dist(p, q))
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

// stdRng is rng's stream drawn through math/rand/v2, the oracle the
// package's own stream must match draw for draw.
func stdRng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
}

// oldWalk and oldPathWalk are the generators as they were before Walk
// and PathWalk wrote into one contiguous backing per trajectory: a
// scratch configuration advanced in place and copied out per frame.
// They draw from math/rand/v2, and are the reference the rewrite must
// match bit for bit.
func oldWalk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	r := stdRng(seed, stream)
	const box, step, dt = 50.0, 0.15, 1.0
	t := &traj.Trajectory{Name: name, NAtoms: nAtoms}
	cur := make([]linalg.Vec3, nAtoms)
	for i := range cur {
		cur[i] = linalg.Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
	}
	for f := 0; f < nFrames; f++ {
		t.Times = append(t.Times, float64(f)*dt)
		t.Coords = append(t.Coords, cur...)
		for i := range cur {
			cur[i][0] += float64(r.NormFloat64() * step)
			cur[i][1] += float64(r.NormFloat64() * step)
			cur[i][2] += float64(r.NormFloat64() * step)
		}
	}
	return t
}

func oldPathWalk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	const box, drift, jitter, dt = 50.0, 1.0, 0.15, 1.0
	base := stdRng(seed, 0x9A7B)
	start := make([]linalg.Vec3, nAtoms)
	for i := range start {
		start[i] = linalg.Vec3{base.Float64() * box, base.Float64() * box, base.Float64() * box}
	}
	r := stdRng(seed, stream^0x5EED)
	dir := linalg.Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale(drift / n)
	}
	t := &traj.Trajectory{Name: name, NAtoms: nAtoms}
	cur := make([]linalg.Vec3, nAtoms)
	copy(cur, start)
	for f := 0; f < nFrames; f++ {
		t.Times = append(t.Times, float64(f)*dt)
		t.Coords = append(t.Coords, cur...)
		for i := range cur {
			cur[i] = cur[i].Add(dir)
			cur[i][0] += float64(r.NormFloat64() * jitter)
			cur[i][1] += float64(r.NormFloat64() * jitter)
			cur[i][2] += float64(r.NormFloat64() * jitter)
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
				if len(got.Coords) != len(want.Coords) {
					t.Fatalf("%s %v: %d coords, want %d", g.name, sh, len(got.Coords), len(want.Coords))
				}
				for f := range want.Times {
					if math.Float64bits(got.Times[f]) != math.Float64bits(want.Times[f]) {
						t.Fatalf("%s %v frame %d: time %v, want %v", g.name, sh, f, got.Times[f], want.Times[f])
					}
				}
				for i := range want.Coords {
					for c := 0; c < 3; c++ {
						if math.Float64bits(got.Coords[i][c]) != math.Float64bits(want.Coords[i][c]) {
							t.Fatalf("%s %v frame %d atom %d axis %d: %v, want %v", g.name, sh, i/sh[0], i%sh[0], c, got.Coords[i][c], want.Coords[i][c])
						}
					}
				}
			}
		}
	}
}

// oldBilayer is Bilayer as it was before it drew from the package's
// own stream and laid its sheets out row by row: one i / cols and
// i % cols per atom, appending, drawing from math/rand/v2.
func oldBilayer(nAtoms int, seed uint64) []linalg.Vec3 {
	r := stdRng(seed, 0xB17A)
	out := make([]linalg.Vec3, 0, nAtoms)
	sheet := func(n int, z float64) {
		const jitter = 0.08 * BilayerSpacing
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		if cols < 1 {
			cols = 1
		}
		rowH := BilayerSpacing * math.Sqrt(3) / 2
		for i := 0; i < n; i++ {
			row, col := i/cols, i%cols
			x := float64(float64(col) * BilayerSpacing)
			if row%2 == 1 {
				x += BilayerSpacing / 2
			}
			y := float64(float64(row) * rowH)
			out = append(out, linalg.Vec3{
				x + float64(r.NormFloat64()*jitter),
				y + float64(r.NormFloat64()*jitter),
				z + float64(r.NormFloat64()*jitter),
			})
		}
	}
	sheet(nAtoms/2+nAtoms%2, 0)
	sheet(nAtoms/2, BilayerSeparation)
	return out
}

// TestBilayerMatchesOldLoopBitForBit pins Bilayer to its old loop at
// sizes whose sheets end on a full row, a partial row and a lone atom.
func TestBilayerMatchesOldLoopBitForBit(t *testing.T) {
	skipUnlessStdlibRounds(t)
	for _, n := range []int{2, 3, 4, 7, 17, 100, 2047, 2048} {
		for _, seed := range []uint64{0, 1, 9} {
			got, want := Bilayer(n, seed), oldBilayer(n, seed)
			lo, hi := got.CountLeaflets()
			if lo != n/2+n%2 || hi != n/2 {
				t.Fatalf("n=%d: leaflets %d/%d", n, lo, hi)
			}
			for i := range want {
				for c := 0; c < 3; c++ {
					if math.Float64bits(got.Coords[i][c]) != math.Float64bits(want[i][c]) {
						t.Fatalf("n=%d seed=%d atom %d axis %d: %v, want %v", n, seed, i, c, got.Coords[i][c], want[i][c])
					}
				}
			}
		}
	}
}

// TestWalkFramesIndependent: frames share one backing, but an append
// to one frame's coordinates must never write into the next.
func TestWalkFramesIndependent(t *testing.T) {
	tr := Walk("x", 4, 3, 1, 0)
	next := tr.FrameCoords(1)[0]
	_ = append(tr.FrameCoords(0), linalg.Vec3{-1, -1, -1})
	if tr.FrameCoords(1)[0] != next {
		t.Fatal("append to frame 0 overwrote frame 1")
	}
}

// TestRecipeDigestsMatchFmt checks that WalkDigest and BilayerDigest,
// which build their recipes with strconv, hash exactly the strings the
// fmt.Sprintf recipes they replaced hashed, at the extremes of every
// argument.
func TestRecipeDigestsMatchFmt(t *testing.T) {
	ref := func(recipe string) string {
		sum := sha256.Sum256([]byte("mdtask/synth recipe|" + recipe))
		return hex.EncodeToString(sum[:])
	}
	ints := []int{0, 1, 9, 10, 16, 1024, -1, math.MaxInt, math.MinInt}
	uints := []uint64{0, 1, 7, 1 << 32, math.MaxUint64}
	for _, a := range ints {
		for _, u := range uints {
			f := ints[len(ints)-1-int(u%uint64(len(ints)))]
			if got, want := WalkDigest(a, f, u, u^3), ref(fmt.Sprintf("walk|v%d|atoms=%d|frames=%d|seed=%d|stream=%d", WalkVersion, a, f, u, u^3)); got != want {
				t.Errorf("WalkDigest(%d, %d, %d, %d) = %s, want %s", a, f, u, u^3, got, want)
			}
			if got, want := BilayerDigest(a, u), ref(fmt.Sprintf("bilayer|v%d|atoms=%d|seed=%d", BilayerVersion, a, u)); got != want {
				t.Errorf("BilayerDigest(%d, %d) = %s, want %s", a, u, got, want)
			}
		}
	}
}

// BenchmarkWalk times one psa-cold-shaped member, 1024 atoms × 64
// frames, and reports the cost of each normal draw (with its add and
// store) beside ns/op.
func BenchmarkWalk(b *testing.B) {
	const atoms, frames = 1024, 64
	for i := 0; i < b.N; i++ {
		Walk("w", atoms, frames, 1, uint64(i))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(3*atoms*(frames-1)), "ns/normal")
}

// BenchmarkBilayer times one leaflet-cold-shaped membrane, 32768 atoms.
func BenchmarkBilayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Bilayer(32768, uint64(i))
	}
}

// TestGeneratorsOverwriteDirtyBackings: a server writes each generated
// input into memory an earlier input gave back, so WalkInto and
// BilayerCoords must write every position whatever the backing held.
// At the shapes the jobs layer's staging pins (4 × 16 atoms × 8 frames
// at seed 0, 8 × 1024 × 64 at seed 1000, a 2048-atom membrane at seed
// 0), a backing filled with NaN and one holding another input's
// coordinates both give the bits of a fresh one.
func TestGeneratorsOverwriteDirtyBackings(t *testing.T) {
	nan := func(n int) []linalg.Vec3 {
		b := make([]linalg.Vec3, n)
		for i := range b {
			b[i] = linalg.Vec3{math.NaN(), math.NaN(), math.NaN()}
		}
		return b
	}
	same := func(t *testing.T, what string, got, want []linalg.Vec3) {
		t.Helper()
		for i := range want {
			for c := range 3 {
				if math.Float64bits(got[i][c]) != math.Float64bits(want[i][c]) {
					t.Fatalf("%s: position %d axis %d is %v, fresh %v", what, i, c, got[i][c], want[i][c])
				}
			}
		}
	}
	for _, w := range []struct {
		count, atoms, frames int
		seed                 uint64
	}{{4, 16, 8, 0}, {8, 1024, 64, 1000}} {
		n := w.atoms * w.frames
		for i := range w.count {
			fresh := Walk("w", w.atoms, w.frames, w.seed, uint64(i))
			stale := Walk("w", w.atoms, w.frames, w.seed+1, uint64(i)).Coords
			for _, dirty := range []struct {
				name string
				b    []linalg.Vec3
			}{{"NaN", nan(n)}, {"stale", stale}} {
				got := WalkInto(dirty.b, "w", w.atoms, w.frames, w.seed, uint64(i))
				if &got.Coords[0] != &dirty.b[0] {
					t.Fatal("WalkInto did not write into the backing it was given")
				}
				same(t, fmt.Sprintf("walk %d×%d seed %d member %d over a %s backing", w.atoms, w.frames, w.seed, i, dirty.name), got.Coords, fresh.Coords)
			}
		}
	}
	fresh := Bilayer(2048, 0).Coords
	same(t, "bilayer over a NaN backing", BilayerCoords(nan(2048), 0), fresh)
	same(t, "bilayer over a stale backing", BilayerCoords(Bilayer(2048, 1).Coords, 0), fresh)
}
