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

// Input is a job's resolved input data: a PSA job's ensemble as Refs,
// a Leaflet job's membrane as Coords. The members of an ensemble
// ResolveInput loads share one atom count, and a resident one
// (generated, or decoded from a .mdt file) is already packed, so no
// timed task packs it; a streamed member is a header-only file handle.
// A hand-built input (examples/psaensemble) is packed on first use.
//
// The digest of an input read from disk covers the actual coordinates
// (not file paths or names), so identical data reached through
// different paths content-addresses identically. An input the server
// generates is addressed by its recipe instead (synth.WalkDigest,
// synth.BilayerDigest): the generator's version and arguments name the
// coordinates exactly, so regenerating the same synth spec addresses
// identically without a pass over the data.
type Input struct {
	// Refs is the trajectory ensemble of a PSA job.
	Refs traj.RefEnsemble
	// Coords is the membrane snapshot of a Leaflet Finder job.
	Coords []linalg.Vec3
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
// digest, known without a scan, and a generated membrane's is set when
// it is generated.
func (in *Input) ContentDigest() (string, error) {
	in.digestOnce.Do(func() {
		if in.Refs != nil {
			in.digest, in.digestErr = refsDigest(in.Refs)
		} else {
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
	in.Refs, in.Coords = nil, nil
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
	switch spec.Analysis {
	case AnalysisPSA:
		return loadEnsemble(spec, pool)
	case AnalysisLeaflet:
		if g := spec.Synth; g != nil {
			// A membrane is Bilayer's coordinates alone: the job never
			// reads the ground-truth labels the CLIs check against.
			b := pool.take(g.Atoms)
			in := &Input{Coords: synth.BilayerCoords(b, g.Seed), backings: [][]linalg.Vec3{b}, pool: pool}
			in.digestOnce.Do(func() { in.digest = synth.BilayerDigest(g.Atoms, g.Seed) })
			return in, nil
		}
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

// loadEnsemble builds a PSA input's members, one task per member on a
// GOMAXPROCS pool, and validates them together. A member is one Walk
// written into a backing taken from pool, whose ref carries its recipe
// digest; or a .mdt file of the input directory (sorted by name),
// decoded, or opened as a header-only handle when max_resident_frames
// streams the job. A resident member is packed by the task that made
// it, while its coordinates are still in cache. A generated member's
// digest depends on its own (seed, stream) and shape and not on the
// ensemble's Count, so an ensemble grown by one member shares every
// earlier member's digest, and so its cached blocks. Each member is a
// pure function of its own recipe or file, so the ensemble is the same
// whatever the schedule, and a failure names the lowest failing member,
// as a sequential loop would.
func loadEnsemble(spec Spec, pool *backingPool) (*Input, error) {
	in := &Input{pool: pool}
	var member func(i int) (*traj.Ref, error)
	if g := spec.Synth; g != nil {
		in.backings = make([][]linalg.Vec3, g.Count)
		member = func(i int) (*traj.Ref, error) {
			in.backings[i] = pool.take(g.Atoms * g.Frames)
			t := synth.WalkInto(in.backings[i], synthMemberName(i), g.Atoms, g.Frames, g.Seed, uint64(i))
			t.Packed()
			return traj.DigestedRef(t, synth.WalkDigest(g.Atoms, g.Frames, g.Seed, uint64(i))), nil
		}
		in.Refs = make(traj.RefEnsemble, g.Count)
	} else {
		paths, err := ensemblePaths(spec)
		if err != nil {
			return nil, err
		}
		member = func(i int) (*traj.Ref, error) {
			if spec.MaxResidentFrames > 0 {
				return traj.FileRef(paths[i])
			}
			t, err := traj.ReadMDTFile(paths[i])
			if err != nil {
				return nil, err
			}
			t.Packed()
			return traj.MemRef(t), nil
		}
		in.Refs = make(traj.RefEnsemble, len(paths))
	}
	err := engine.NewPool(0, nil).ForEach(len(in.Refs), func(i int) (err error) {
		in.Refs[i], err = member(i)
		return err
	})
	if err == nil {
		err = in.Refs.Validate()
	}
	if err != nil {
		in.release()
		return nil, err
	}
	return in, nil
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
