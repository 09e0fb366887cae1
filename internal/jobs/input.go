package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"mdtask/internal/engine"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// Input is a job's resolved input data. The digest of an input read
// from disk covers the actual coordinates (not file paths or names), so
// identical data reached through different paths content-addresses
// identically. An input the server generates is addressed by its
// recipe instead (synth.WalkDigest, synth.BilayerDigest): the
// generator's version and arguments name the coordinates exactly, so
// regenerating the same synth spec addresses identically without a
// pass over the data.
type Input struct {
	// Refs is the trajectory ensemble of a PSA job as windowed handles —
	// always set for PSA. In a streamed on-disk job they are file-backed
	// and no frame is resident until an engine windows them.
	Refs traj.RefEnsemble
	// Ens is the loaded trajectory ensemble of an in-memory PSA job
	// (nil when the job streams from disk; Refs wrap it otherwise).
	Ens traj.Ensemble
	// Coords is the membrane snapshot of a Leaflet Finder job.
	Coords []linalg.Vec3
	// recipe is the digest of a generated membrane (empty for a file).
	recipe string
	// backings is the coordinate memory of a generated input, taken from
	// pool; release gives it back.
	backings [][]linalg.Vec3
	pool     *backingPool

	digestOnce sync.Once
	digest     string
	digestErr  error
}

// ContentDigest returns the hex SHA-256 that addresses the input,
// computed lazily (the one-shot CLI path never needs it) and cached. A
// PSA ensemble digests as the ordered list of its members' digests
// (traj.Ref.Digest) — the same digests the block cache keys blocks
// under, so the one scan that content-addresses a job also warms every
// per-trajectory digest the engines will need. A file member's digest
// hashes its content (streamed refs frame by frame, identically to the
// same data loaded in memory); a generated member's is its recipe
// digest, known without a scan, and so is a generated membrane's.
func (in *Input) ContentDigest() (string, error) {
	in.digestOnce.Do(func() {
		switch {
		case in.Refs != nil:
			in.digest, in.digestErr = refsDigest(in.Refs)
		case in.recipe != "":
			in.digest = in.recipe
		default:
			in.digest = coordsDigest(in.Coords)
		}
	})
	return in.digest, in.digestErr
}

// coordsDigest returns the hex SHA-256 of a coordinate set's content:
// its count plus every coordinate's float64 bits.
func coordsDigest(coords []linalg.Vec3) string {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(coords)))
	h.Write(n[:])
	const chunk = 256 // points hashed per buffer fill
	buf := make([]byte, 0, 24*chunk)
	for lo := 0; lo < len(coords); lo += chunk {
		buf = linalg.AppendVec3s(buf[:0], coords[lo:min(lo+chunk, len(coords))])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// release gives a generated input's backings back to the pool they
// came from and drops the input's views of them. Nothing may read the
// input's coordinates afterwards: the next input generated may be
// written into the same memory. It is a no-op on a second call, on a
// nil input, or for an input read from files.
func (in *Input) release() {
	if in == nil {
		return
	}
	in.pool.give(in.backings)
	in.backings = nil
	in.Refs, in.Ens, in.Coords = nil, nil, nil
}

// synthDigest returns the digest that addresses a generated input,
// composed from its recipe as ContentDigest composes the generated
// input's: a PSA ensemble's as refsDigest composes its members'
// WalkDigests, a membrane's its BilayerDigest. So a synth spec's cache
// key is known before a byte is generated. ok is false for an input
// read from files.
func synthDigest(spec Spec) (digest string, ok bool) {
	g := spec.Synth
	if g == nil {
		return "", false
	}
	switch spec.Analysis {
	case AnalysisPSA:
		ds := make([]string, g.Count)
		for i := range ds {
			ds[i] = synth.WalkDigest(g.Atoms, g.Frames, g.Seed, uint64(i))
		}
		return composeDigests(ds), true
	case AnalysisLeaflet:
		return synth.BilayerDigest(g.Atoms, g.Seed), true
	}
	return "", false
}

// ResolveInput loads or generates the input a normalized spec describes.
func ResolveInput(spec Spec) (*Input, error) { return resolveInput(spec, nil) }

// resolveInput is ResolveInput with a generated input written into
// backings taken from pool (nil: fresh ones), which the input's release
// gives back.
func resolveInput(spec Spec, pool *backingPool) (*Input, error) {
	if spec.Synth != nil {
		return generateInput(spec, pool)
	}
	switch spec.Analysis {
	case AnalysisPSA:
		if spec.MaxResidentFrames > 0 && spec.Path != "" {
			// Out-of-core: resolve handles without loading any frames.
			refs, err := resolveEnsembleRefs(spec)
			if err != nil {
				return nil, err
			}
			if err := refs.Validate(); err != nil {
				return nil, err
			}
			return &Input{Refs: refs}, nil
		}
		ens, refs, err := resolveEnsemble(spec)
		if err != nil {
			return nil, err
		}
		return &Input{Ens: ens, Refs: refs}, nil
	case AnalysisLeaflet:
		coords, err := resolveCoords(spec.Path)
		if err != nil {
			return nil, err
		}
		if len(coords) == 0 {
			return nil, fmt.Errorf("jobs: empty coordinate set")
		}
		return &Input{Coords: coords}, nil
	default:
		return nil, fmt.Errorf("jobs: unknown analysis %q", spec.Analysis)
	}
}

// generateInput generates a synth spec's input into backings taken from
// pool; its ContentDigest is what synthDigest gives for the spec. A
// PSA ensemble is one Walk per member; a member's ref carries its
// recipe digest, which depends on the member's own (seed, stream) and
// shape and not on the ensemble's Count, so an ensemble grown by one
// member shares every earlier member's digest, and so its cached
// blocks. A membrane is Bilayer's coordinates alone: the job never
// reads the ground-truth labels the CLIs check against.
func generateInput(spec Spec, pool *backingPool) (*Input, error) {
	g := spec.Synth
	switch spec.Analysis {
	case AnalysisPSA:
		in := &Input{pool: pool, backings: make([][]linalg.Vec3, g.Count)}
		ens, refs, err := loadEnsemble(g.Count, func(i int) (*traj.Ref, error) {
			in.backings[i] = pool.take(g.Atoms * g.Frames)
			t := synth.WalkInto(in.backings[i], synthMemberName(i), g.Atoms, g.Frames, g.Seed, uint64(i))
			return traj.DigestedRef(t, synth.WalkDigest(g.Atoms, g.Frames, g.Seed, uint64(i))), nil
		})
		if err != nil {
			in.release()
			return nil, err
		}
		in.Ens, in.Refs = ens, refs
		return in, nil
	case AnalysisLeaflet:
		b := pool.take(g.Atoms)
		return &Input{Coords: synth.BilayerCoords(b, g.Seed), recipe: synth.BilayerDigest(g.Atoms, g.Seed),
			backings: [][]linalg.Vec3{b}, pool: pool}, nil
	default:
		return nil, fmt.Errorf("jobs: unknown analysis %q", spec.Analysis)
	}
}

// resolveEnsemble reads a directory of .mdt files (sorted by name) into
// memory. A member's ref digests its content when asked.
func resolveEnsemble(spec Spec) (traj.Ensemble, traj.RefEnsemble, error) {
	paths, err := ensemblePaths(spec)
	if err != nil {
		return nil, nil, err
	}
	return loadEnsemble(len(paths), func(i int) (*traj.Ref, error) {
		t, err := traj.ReadMDTFile(paths[i])
		if err != nil {
			return nil, err
		}
		return traj.MemRef(t), nil
	})
}

// loadEnsemble builds n resident members, one task per member on a
// GOMAXPROCS pool, and returns them, validated, with memory-backed refs
// over them. Each member is a pure function of its own (seed, stream)
// or file, so the ensemble is the same whatever the schedule, and a
// failure names the lowest failing member, as a sequential loop would.
func loadEnsemble(n int, member func(i int) (*traj.Ref, error)) (traj.Ensemble, traj.RefEnsemble, error) {
	refs := make(traj.RefEnsemble, n)
	if err := engine.NewPool(0, nil).ForEach(n, func(i int) (err error) {
		refs[i], err = member(i)
		return err
	}); err != nil {
		return nil, nil, err
	}
	ens, err := refs.Load() // memory-backed: shares the trajectories
	if err != nil {
		return nil, nil, err
	}
	if err := ens.Validate(); err != nil {
		return nil, nil, err
	}
	return ens, refs, nil
}

// synthMemberName names member i of a generated ensemble as
// fmt.Sprintf("synth-%03d", i) would, without fmt.
func synthMemberName(i int) string {
	b := append(make([]byte, 0, 16), "synth-"...)
	for p := 100; p > 1 && i < p; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// resolveEnsembleRefs builds file-backed handles over a directory of
// .mdt files: only headers are read here, frames stay on disk until an
// engine windows them.
func resolveEnsembleRefs(spec Spec) (traj.RefEnsemble, error) {
	paths, err := ensemblePaths(spec)
	if err != nil {
		return nil, err
	}
	refs := make(traj.RefEnsemble, 0, len(paths))
	for _, p := range paths {
		r, err := traj.FileRef(p)
		if err != nil {
			return nil, err
		}
		refs = append(refs, r)
	}
	return refs, nil
}

// ensemblePaths lists a PSA input directory's .mdt files, sorted, and
// refuses a count whose plan would pass MaxPSABlocks before any is read.
func ensemblePaths(spec Spec) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(spec.Path, "*.mdt"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("jobs: no .mdt files in %s (generate some with trajgen)", spec.Path)
	}
	sort.Strings(paths)
	if err := spec.checkPlan(len(paths)); err != nil {
		return nil, err
	}
	return paths, nil
}

// resolveCoords reads frame 0 of a single-frame .mdt membrane file.
func resolveCoords(path string) ([]linalg.Vec3, error) {
	t, err := traj.ReadMDTFile(path)
	if err != nil {
		return nil, err
	}
	if t.NFrames() == 0 {
		return nil, fmt.Errorf("jobs: %s contains no frames", path)
	}
	return t.FrameCoords(0), nil
}

// refsDigest hashes an ensemble as the ordered list of its members'
// digests: their count, then each member's. A file member digests
// streamed or in-memory data identically (traj.Ref.Digest), so streamed
// and in-memory submissions of the same files share one cache entry; a
// generated member's digest is its recipe, already on its ref. The
// members are hashed as one task each on a GOMAXPROCS pool and composed
// in ensemble order, so the digest does not depend on the schedule and
// a failure names the lowest failing member. A member file the process
// has hashed before, under the same device, inode, size, mtime and
// ctime, is not read again (traj's file-identity cache; README, "What
// admission trusts"), so a submission scans only the on-disk bytes it
// has not seen; callers that cannot afford even that on the submit path
// should run through RunLocal, which never digests.
func refsDigest(refs traj.RefEnsemble) (string, error) {
	ds := make([]string, len(refs))
	err := engine.NewPool(0, nil).ForEach(len(refs), func(i int) (err error) {
		ds[i], err = refs[i].Digest()
		return err
	})
	if err != nil {
		return "", err
	}
	return composeDigests(ds), nil
}

// composeDigests hashes an ordered list of member digests: their
// count, then each one.
func composeDigests(ds []string) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(ds)))
	h.Write(buf[:])
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}
