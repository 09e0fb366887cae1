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
	"math/rand/v2"
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

// rng returns a deterministic PCG generator for a (seed, stream) pair.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x9e3779b97f4a7c15))
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
	r := rng(seed, stream)
	const (
		box  = 50.0 // initial box edge, Å
		step = 0.15 // per-frame Gaussian displacement σ, Å
		dt   = 1.0  // frame spacing, ps
	)
	t := frames(name, nAtoms, nFrames, dt)
	if nFrames == 0 {
		return t
	}
	first := t.Frames[0].Coords
	for i := range first {
		first[i] = linalg.Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
	}
	for f := 1; f < nFrames; f++ {
		prev, cur := t.Frames[f-1].Coords, t.Frames[f].Coords
		for i, p := range prev {
			p[0] += float64(r.NormFloat64() * step)
			p[1] += float64(r.NormFloat64() * step)
			p[2] += float64(r.NormFloat64() * step)
			cur[i] = p
		}
	}
	return t
}

// frames allocates a trajectory of nFrames frames, dt apart, whose
// coordinates share one contiguous backing (traj.Alloc): the generators
// fill it in place, and packing it for the kernels adds no copy.
func frames(name string, nAtoms, nFrames int, dt float64) *traj.Trajectory {
	t := traj.Alloc(name, nAtoms, nFrames)
	for f := range t.Frames {
		t.Frames[f].Time = float64(f) * dt
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
	base := rng(seed, 0x9A7B)
	first := t.Frames[0].Coords
	for i := range first {
		first[i] = linalg.Vec3{base.Float64() * box, base.Float64() * box, base.Float64() * box}
	}
	// Drift direction and jitter are per-trajectory.
	r := rng(seed, stream^0x5EED)
	dir := linalg.Vec3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	if n := dir.Norm(); n > 0 {
		dir = dir.Scale(drift / n)
	}
	for f := 1; f < nFrames; f++ {
		prev, cur := t.Frames[f-1].Coords, t.Frames[f].Coords
		for i, p := range prev {
			p = p.Add(dir)
			p[0] += float64(r.NormFloat64() * jitter)
			p[1] += float64(r.NormFloat64() * jitter)
			p[2] += float64(r.NormFloat64() * jitter)
			cur[i] = p
		}
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
	r := rng(seed, 0xB17A)
	perLeaflet := nAtoms / 2
	nLower := perLeaflet + nAtoms%2
	sys := &BilayerSystem{
		Coords:  make([]linalg.Vec3, 0, nAtoms),
		Leaflet: make([]uint8, 0, nAtoms),
	}
	sheet(sys, nLower, 0, 0, r)
	sheet(sys, perLeaflet, BilayerSeparation, 1, r)
	return sys
}

// sheet appends one jittered triangular-lattice sheet at height z.
func sheet(sys *BilayerSystem, n int, z float64, label uint8, r *rand.Rand) {
	const jitter = 0.08 * BilayerSpacing
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rowH := BilayerSpacing * math.Sqrt(3) / 2
	for i := 0; i < n; i++ {
		row := i / cols
		col := i % cols
		x := float64(float64(col) * BilayerSpacing)
		if row%2 == 1 {
			x += BilayerSpacing / 2
		}
		y := float64(float64(row) * rowH)
		sys.Coords = append(sys.Coords, linalg.Vec3{
			x + float64(r.NormFloat64()*jitter),
			y + float64(r.NormFloat64()*jitter),
			z + float64(r.NormFloat64()*jitter),
		})
		sys.Leaflet = append(sys.Leaflet, label)
	}
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
