// Package synth generates deterministic synthetic MD datasets that stand
// in for the paper's real-world inputs (which came from production
// simulations on XSEDE storage):
//
//   - Trajectory ensembles for Path Similarity Analysis, with the paper's
//     three atom-count presets (small 3341, medium 6682, large 13364
//     atoms per frame; 102 frames) — see Ensemble.
//   - Lipid-bilayer systems for the Leaflet Finder, with the paper's four
//     size presets (131k, 262k, 524k, 4M atoms) — see Bilayer. The
//     generator produces two locally-parallel sheets whose inter-sheet
//     distance exceeds the neighbor cutoff, so the contact graph has
//     exactly two connected components and roughly the paper's
//     edges-per-atom density (~6.7).
//
// All generators are deterministic functions of their arguments, and
// every product they add is rounded on its own (float64(x*y)), so no
// compiler fuses it into an FMA and a generator writes the same bits on
// every GOARCH.
//
// The random stream is the package's own (stream.go), not
// math/rand/v2's, for the same reason: the standard library's
// NormFloat64 leaves products of its wedge test and tail unrounded,
// which arm64 fuses, and amd64's math.Exp picks an FMA body at run
// time. The package's stream is the same PCG-DXSM and ziggurat with
// every product rounded and a pure-Go log and exp, so it draws the same
// bits on every GOARCH, and on amd64 and 386 exactly what math/rand/v2
// draws (the tests hold it to that draw for draw). It is also a value
// type whose fast path inlines into the generators' one hot loop,
// which keeps its 128-bit state in registers: a walk costs about a
// fifth less to generate than through rand.Rand (BenchmarkWalk).
//
// The wedge test of strip i, lhs < float32(exp(−x²/2)), is decided by
// a squeeze wherever it can be (Marsaglia & Tsang 2000; McFarland 2016
// decides overhang points by convexity the same way), and exp runs only
// for the points it leaves open. A wedge draw's |x| lies in [a, b],
// a = kn[i]·wn[i] and b = 2³¹·wn[i]. On that interval f(x) = e^(−x²/2)
// lies between two lines. Where f is concave (b ≤ 1) the chord through
// (a, f(a)) and (b, f(b)) is below f and the tangent at the midpoint is
// above it. Where f is convex (a ≥ 1) the two swap. The one strip across
// 1 takes the constants f(b) ≤ f ≤ f(a), since f falls on [0, ∞). Each
// line is moved away from f by f(a)·2⁻¹⁹, and the squeeze accepts when
// float64(lhs) is below the lower line and rejects when it is at or
// above the upper one. That is the test exp would decide. The margin
// covers what separates float32(exp(−x²/2)) from the real f(x) on the
// strip: rounding to float32, at most 2⁻²⁴·f(x) ≤ 2⁻²⁴·f(a), which the
// margin exceeds 2⁵ times over; exp's own error and that of the rounded
// −x²/2, a few units of 2⁻⁵³; and the rounding of the lines, which are
// built at init with the package's own exp and evaluated with each
// product rounded, a few units of 2⁻⁵³ of f(a) too. So every point the
// squeeze decides, exp would decide the same way, on every GOARCH, and
// the bytes do not move (TestWedgeSqueezeAgreesWithExp checks every
// strip on a dense grid, the float32 neighbours of the threshold
// included). exp runs for about 7 % of wedge tests, mostly in strip 1,
// whose wedge is all of it.
//
// The two generators the job service serves, Walk and Bilayer, are
// addressed by their recipe: WalkDigest and BilayerDigest hash the
// generator's version and arguments, never the coordinates, so a server
// names a generated input without a pass over it. The version constant
// beside each generator is what makes that sound: a change to what a
// generator writes for some recipe must bump its version, or inputs
// generated before and after the change would share one digest, and so
// one cache entry.
package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// EnsemblePreset names a trajectory size class from the paper (§4.2).
type EnsemblePreset struct {
	Name    string
	NAtoms  int
	NFrames int
}

// The paper's three PSA trajectory size classes, each with 102 frames.
var (
	Small  = EnsemblePreset{Name: "small", NAtoms: 3341, NFrames: 102}
	Medium = EnsemblePreset{Name: "medium", NAtoms: 6682, NFrames: 102}
	Large  = EnsemblePreset{Name: "large", NAtoms: 13364, NFrames: 102}
)

// EnsemblePresets lists the paper's size classes in ascending order.
var EnsemblePresets = []EnsemblePreset{Small, Medium, Large}

// rng returns the random stream of a (seed, stream) pair.
func rng(seed, stream uint64) pcg {
	return pcg{seed, stream ^ 0x9e3779b97f4a7c15}
}

// Ensemble generates n random-walk trajectories of the given preset.
// Each trajectory starts from a random configuration in a cubic box and
// evolves by small Gaussian displacements, which yields smoothly varying
// frames like a thermostatted MD run.
func Ensemble(p EnsemblePreset, n int, seed uint64) traj.Ensemble {
	out := make(traj.Ensemble, n)
	for i := range out {
		out[i] = Walk(fmt.Sprintf("%s-%03d", p.Name, i), p.NAtoms, p.NFrames, seed, uint64(i))
	}
	return out
}

// WalkVersion names what Walk writes. Bump it with any change to the
// coordinates or times Walk generates for some arguments: WalkDigest
// promises that one recipe names one content.
const WalkVersion = 1

// WalkDigest returns the hex recipe digest of Walk(name, nAtoms,
// nFrames, seed, stream): SHA-256 over a domain-separated string of
// WalkVersion and the arguments. The display name is not part of it,
// since it is not part of the content.
func WalkDigest(nAtoms, nFrames int, seed, stream uint64) string {
	b := append(make([]byte, 0, 128), recipeDomain+"walk|v"...)
	b = strconv.AppendInt(b, WalkVersion, 10)
	b = strconv.AppendInt(append(b, "|atoms="...), int64(nAtoms), 10)
	b = strconv.AppendInt(append(b, "|frames="...), int64(nFrames), 10)
	b = strconv.AppendUint(append(b, "|seed="...), seed, 10)
	b = strconv.AppendUint(append(b, "|stream="...), stream, 10)
	return recipeDigest(b)
}

// recipeDomain prefixes every recipe a generator hashes, so a recipe
// digest and a content digest (traj.Ref.Digest, which hashes a binary
// shape and coordinates) never hash the same bytes.
const recipeDomain = "mdtask/synth recipe|"

// recipeDigest returns the hex SHA-256 of a recipe that starts with
// recipeDomain.
func recipeDigest(recipe []byte) string {
	sum := sha256.Sum256(recipe)
	return hex.EncodeToString(sum[:])
}

// Walk generates a single random-walk trajectory: nAtoms atoms over
// nFrames frames. The (seed, stream) pair fully determines the output.
func Walk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	const (
		box  = 50.0 // initial box edge, Å
		step = 0.15 // per-frame Gaussian displacement σ, Å
		dt   = 1.0  // frame spacing, ps
	)
	t := frames(name, nAtoms, nFrames, dt)
	if nFrames == 0 {
		return t
	}
	// Each frame is viewed as its x, y, z components in atom order, the
	// order the draws have always been made in.
	p := rng(seed, stream).uniforms(linalg.Floats(t.FrameCoords(0)), box)
	for f := 1; f < nFrames; f++ {
		p = p.displace(linalg.Floats(t.FrameCoords(f)), linalg.Floats(t.FrameCoords(f-1)), step)
	}
	return t
}

// uniforms fills dst with uniform draws in [0, scale), one per
// component in order, and returns the stream where it left it.
func (p pcg) uniforms(dst []float64, scale float64) pcg {
	var u uint64
	for o := range dst {
		p, u = p.next()
		dst[o] = uniform(u) * scale
	}
	return p
}

// displace writes dst[o] = base[o] + x·sigma for one standard normal x
// per component, drawn in order, and returns the stream where it left
// it; dst and base may be the same slice. It is the generators' one
// hot loop: next and zig inline into it, and normSlow is called only
// for the draws zig misses. Being a function of its own, it holds only
// its own values in registers beside the stream's state.
func (p pcg) displace(dst, base []float64, sigma float64) pcg {
	base = base[:len(dst)]
	var u uint64
	for o := range dst {
		p, u = p.next()
		x, ok := zig(u)
		if !ok {
			p, x = p.normSlow(u)
		}
		dst[o] = base[o] + float64(x*sigma)
	}
	return p
}

// frames allocates a trajectory of nFrames frames, dt apart, for the
// generators to fill in place.
func frames(name string, nAtoms, nFrames int, dt float64) *traj.Trajectory {
	t := traj.Alloc(name, nAtoms, nFrames)
	for f := range t.Times {
		t.Times[f] = float64(f) * dt
	}
	return t
}

// PathWalk generates a transition-path-like trajectory for Path
// Similarity Analysis: all members of a (seed-determined) ensemble
// share the same initial configuration and each drifts coherently along
// its own stream-determined direction while the atoms jitter, like
// independent simulations escaping a common starting basin toward
// different end states. Unlike Walk, whose frames all occupy the same
// region, PathWalk frames traverse space: frame centroids separate
// roughly linearly in time, which is the structure the pruned Hausdorff
// kernel's centroid bounds and temporal-coherence pruning exploit.
func PathWalk(name string, nAtoms, nFrames int, seed, stream uint64) *traj.Trajectory {
	const (
		box    = 50.0 // initial box edge, Å
		drift  = 1.0  // coherent per-frame displacement, Å
		jitter = 0.15 // per-frame per-atom Gaussian displacement σ, Å
		dt     = 1.0  // frame spacing, ps
	)
	t := frames(name, nAtoms, nFrames, dt)
	if nFrames == 0 {
		return t
	}
	// The shared starting configuration depends only on the seed.
	rng(seed, 0x9A7B).uniforms(linalg.Floats(t.FrameCoords(0)), box)
	// Drift direction and jitter are per-trajectory.
	p := rng(seed, stream^0x5EED)
	var dir linalg.Vec3
	for k := range dir {
		p, dir[k] = p.norm()
	}
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale(drift / n)
	}
	for f := 1; f < nFrames; f++ {
		prev, cur := t.FrameCoords(f-1), t.FrameCoords(f)
		for i, q := range prev[:len(cur)] {
			cur[i] = q.Add(dir)
		}
		p = p.displace(linalg.Floats(cur), linalg.Floats(cur), jitter)
	}
	return t
}

// PathEnsemble generates n PathWalk trajectories diverging from the
// seed's shared starting configuration.
func PathEnsemble(n, nAtoms, nFrames int, seed uint64) traj.Ensemble {
	out := make(traj.Ensemble, n)
	for i := range out {
		out[i] = PathWalk(fmt.Sprintf("path-%03d", i), nAtoms, nFrames, seed, uint64(i))
	}
	return out
}

// MembranePreset names a Leaflet Finder system size from the paper
// (§4.3): total atom count across both leaflets.
type MembranePreset struct {
	Name   string
	NAtoms int
}

// The paper's four Leaflet Finder system sizes.
var (
	M131k = MembranePreset{Name: "131k", NAtoms: 131072}
	M262k = MembranePreset{Name: "262k", NAtoms: 262144}
	M524k = MembranePreset{Name: "524k", NAtoms: 524288}
	M4M   = MembranePreset{Name: "4M", NAtoms: 4_000_000}
)

// MembranePresets lists the paper's membrane sizes in ascending order.
var MembranePresets = []MembranePreset{M131k, M262k, M524k, M4M}

// BilayerSpacing is the in-plane lattice constant of generated bilayers
// in Å (roughly a lipid headgroup spacing).
const BilayerSpacing = 8.0

// BilayerCutoff is the neighbor cutoff (Å) that, at BilayerSpacing,
// connects first and second lattice shells within a leaflet (≈13
// neighbors/atom, matching the paper's edge density) while the two
// leaflets — separated by BilayerSeparation — stay disconnected.
const BilayerCutoff = 1.8 * BilayerSpacing

// BilayerSeparation is the z distance between the two leaflets in Å,
// chosen well above BilayerCutoff.
const BilayerSeparation = 3.5 * BilayerSpacing

// BilayerSystem is a generated membrane snapshot with the ground-truth
// leaflet assignment of every atom.
type BilayerSystem struct {
	Coords []linalg.Vec3
	// Leaflet[i] is 0 for the lower sheet and 1 for the upper sheet.
	Leaflet []uint8
}

// BilayerVersion names what Bilayer writes; bump it with any change to
// the coordinates Bilayer generates for some arguments.
const BilayerVersion = 1

// BilayerDigest returns the hex recipe digest of Bilayer(nAtoms, seed):
// SHA-256 over a domain-separated string of BilayerVersion and the
// arguments.
func BilayerDigest(nAtoms int, seed uint64) string {
	b := append(make([]byte, 0, 96), recipeDomain+"bilayer|v"...)
	b = strconv.AppendInt(b, BilayerVersion, 10)
	b = strconv.AppendInt(append(b, "|atoms="...), int64(nAtoms), 10)
	b = strconv.AppendUint(append(b, "|seed="...), seed, 10)
	return recipeDigest(b)
}

// Bilayer generates a two-leaflet membrane with the given total atom
// count. Each leaflet is a jittered triangular lattice; the jitter σ is
// small relative to the lattice constant, keeping the sheets locally
// parallel as the Leaflet Finder assumes.
func Bilayer(nAtoms int, seed uint64) *BilayerSystem {
	if nAtoms < 2 {
		panic(fmt.Sprintf("synth: Bilayer needs at least 2 atoms, got %d", nAtoms))
	}
	nLower := nAtoms/2 + nAtoms%2
	sys := &BilayerSystem{
		Coords:  make([]linalg.Vec3, nAtoms),
		Leaflet: make([]uint8, nAtoms),
	}
	p := sheet(sys.Coords[:nLower], 0, rng(seed, 0xB17A))
	sheet(sys.Coords[nLower:], BilayerSeparation, p)
	for i := nLower; i < nAtoms; i++ {
		sys.Leaflet[i] = 1
	}
	return sys
}

// sheet fills dst with one jittered triangular-lattice sheet at height
// z, laid out row by row, jittered from p, and returns the stream where
// the sheet left it.
func sheet(dst []linalg.Vec3, z float64, p pcg) pcg {
	const jitter = 0.08 * BilayerSpacing
	n := len(dst)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rowH := BilayerSpacing * math.Sqrt(3) / 2
	for row, i := 0, 0; i < n; row++ {
		y := float64(float64(row) * rowH)
		for col := 0; col < cols && i < n; col, i = col+1, i+1 {
			x := float64(float64(col) * BilayerSpacing)
			if row%2 == 1 {
				x += BilayerSpacing / 2
			}
			dst[i] = linalg.Vec3{x, y, z}
		}
	}
	return p.displace(linalg.Floats(dst), linalg.Floats(dst), jitter)
}

// CountLeaflets returns the sizes of the two ground-truth leaflets.
func (b *BilayerSystem) CountLeaflets() (lower, upper int) {
	for _, l := range b.Leaflet {
		if l == 0 {
			lower++
		} else {
			upper++
		}
	}
	return lower, upper
}
