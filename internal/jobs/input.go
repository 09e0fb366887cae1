package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"mdtask/internal/engine"
	"mdtask/internal/leaflet"
	"mdtask/internal/linalg"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// Input is a job's resolved input data. Its content digest covers the
// actual coordinates (not file paths or names), so identical data
// reached through different paths — or regenerated from the same synth
// spec — content-addresses identically.
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

	digestOnce sync.Once
	digest     string
	digestErr  error
}

// ContentDigest returns the hex SHA-256 of the input content, computed
// lazily (the one-shot CLI path never needs it) and cached. A PSA
// ensemble digests as the ordered list of its members' per-trajectory
// content digests (traj.Ref.Digest) — the same digests the block cache
// keys blocks under, so the one scan that content-addresses a job also
// warms every per-trajectory digest the engines will need. Streamed
// refs digest frame by frame and hash identically to the same data
// loaded in memory.
func (in *Input) ContentDigest() (string, error) {
	in.digestOnce.Do(func() {
		if in.Refs != nil {
			in.digest, in.digestErr = refsDigest(in.Refs)
			return
		}
		in.digest = leaflet.CoordsDigest(in.Coords)
	})
	return in.digest, in.digestErr
}

// ResolveInput loads or generates the input a normalized spec describes.
func ResolveInput(spec Spec) (*Input, error) {
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
		ens, err := resolveEnsemble(spec)
		if err != nil {
			return nil, err
		}
		if err := ens.Validate(); err != nil {
			return nil, err
		}
		return &Input{Ens: ens, Refs: traj.RefsOf(ens)}, nil
	case AnalysisLeaflet:
		coords, err := resolveCoords(spec)
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

// resolveEnsemble reads a directory of .mdt files (sorted by name) or
// generates a random-walk ensemble, one task per trajectory on a
// GOMAXPROCS pool. Each member is a pure function of its own (seed,
// stream) or file, so the ensemble is the same whatever the schedule,
// and a failure names the lowest failing file, as a sequential loop
// would.
func resolveEnsemble(spec Spec) (traj.Ensemble, error) {
	var (
		n      int
		member func(i int) (*traj.Trajectory, error)
	)
	if g := spec.Synth; g != nil {
		n = g.Count
		member = func(i int) (*traj.Trajectory, error) {
			return synth.Walk(fmt.Sprintf("synth-%03d", i), g.Atoms, g.Frames, g.Seed, uint64(i)), nil
		}
	} else {
		paths, err := ensemblePaths(spec.Path)
		if err != nil {
			return nil, err
		}
		n = len(paths)
		member = func(i int) (*traj.Trajectory, error) { return traj.ReadMDTFile(paths[i]) }
	}
	ens := make(traj.Ensemble, n)
	if err := engine.NewPool(0, nil).ForEach(n, func(i int) (err error) {
		ens[i], err = member(i)
		return err
	}); err != nil {
		return nil, err
	}
	return ens, nil
}

// resolveEnsembleRefs builds file-backed handles over a directory of
// .mdt files: only headers are read here, frames stay on disk until an
// engine windows them.
func resolveEnsembleRefs(spec Spec) (traj.RefEnsemble, error) {
	paths, err := ensemblePaths(spec.Path)
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

// ensemblePaths lists a PSA input directory's .mdt files, sorted.
func ensemblePaths(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.mdt"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("jobs: no .mdt files in %s (generate some with trajgen)", dir)
	}
	sort.Strings(paths)
	return paths, nil
}

// resolveCoords reads frame 0 of a single-frame .mdt membrane file or
// generates a bilayer.
func resolveCoords(spec Spec) ([]linalg.Vec3, error) {
	if g := spec.Synth; g != nil {
		return synth.Bilayer(g.Atoms, g.Seed).Coords, nil
	}
	t, err := traj.ReadMDTFile(spec.Path)
	if err != nil {
		return nil, err
	}
	if t.NFrames() == 0 {
		return nil, fmt.Errorf("jobs: %s contains no frames", spec.Path)
	}
	return t.FrameCoords(0), nil
}

// refsDigest hashes an ensemble as the ordered list of its members'
// content digests. Each member digests streamed or in-memory data
// identically (traj.Ref.Digest), so streamed and in-memory submissions
// of the same input share one cache entry. The members are hashed as
// one task each on a GOMAXPROCS pool and composed in ensemble order, so
// the digest does not depend on the schedule and a failure names the
// lowest failing member. The cost is still one full scan of on-disk
// data per submission, spread over the cores (content addressing
// cannot be had for less without trusting file metadata); callers that
// cannot afford the scan on the submit path should run through
// RunLocal, which never digests.
func refsDigest(refs traj.RefEnsemble) (string, error) {
	ds := make([]string, len(refs))
	err := engine.NewPool(0, nil).ForEach(len(refs), func(i int) (err error) {
		ds[i], err = refs[i].Digest()
		return err
	})
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(ds)))
	h.Write(buf[:])
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
