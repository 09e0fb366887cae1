// Package jobs is the serving layer of the repository: the engine table
// (engines.go — the one place an engine name becomes an engine.Executor
// or a pair of staged runners), a registry of named analysis runners
// (analysis × engine) built from it, the job table, a bounded FIFO
// scheduler with cooperative cancellation and per-job engine metrics,
// and a content-addressed result cache. cmd/mdserver exposes it over
// HTTP; cmd/psa and cmd/leaflet run their one-shot invocations through
// the same registry.
//
// The job table (store.go) is what its journal replays to: every
// change to it is a journal record, and one function, table.apply,
// makes each one, when OpenWALStore replays the log and when the
// scheduler appends a record and applies it under the table lock. A
// memory-only scheduler applies the same records without a log. Job
// holds the durable fields as one JobRecord, which only apply writes,
// beside the runtime handles (run context, input, result, spans) the
// scheduler attaches.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"mdtask/internal/hausdorff"
	"mdtask/internal/leaflet"
	"mdtask/internal/synth"
)

// Analysis names.
const (
	AnalysisPSA     = "psa"
	AnalysisLeaflet = "leaflet"
)

// Engine names. EngineSerial is the single-goroutine reference runner;
// spark, dask, mpi and pilot are the paper's in-process task-parallel
// engines; fleet is the multi-process coordinator/worker engine
// (internal/fleet).
const (
	EngineSerial = "serial"
	EngineSpark  = "spark"
	EngineDask   = "dask"
	EngineMPI    = "mpi"
	EnginePilot  = "pilot"
	EngineFleet  = "fleet"
)

// Engines lists every engine name a runner is registered for.
var Engines = []string{EngineSerial, EngineSpark, EngineDask, EngineMPI, EnginePilot, EngineFleet}

// SynthSpec describes a deterministically generated input, the serving
// analogue of cmd/trajgen: either a paper preset by name or explicit
// dimensions. All generation is a pure function of the fields, so a
// synth input is addressed by its recipe (synth.WalkDigest,
// synth.BilayerDigest) without hashing what it generates.
type SynthSpec struct {
	// Preset selects a paper size class: for PSA an ensemble preset
	// (small|medium|large), for Leaflet Finder a membrane preset
	// (131k|262k|524k|4M). Empty: explicit dimensions below.
	Preset string `json:"preset,omitempty"`
	// Count is the number of trajectories of a PSA ensemble (default 4).
	Count int `json:"count,omitempty"`
	// Atoms is the per-trajectory atom count for PSA (default 16) or the
	// total membrane atom count for Leaflet Finder (default 2048).
	Atoms int `json:"atoms,omitempty"`
	// Frames is the per-trajectory frame count for PSA (default 8).
	Frames int `json:"frames,omitempty"`
	// Seed seeds the generator; every value, including the zero value,
	// is a valid seed.
	Seed uint64 `json:"seed,omitempty"`
}

// Spec is the full description of an analysis job: what to compute, on
// which engine, and over which input. It is the wire format of
// POST /v1/jobs and the domain of the result-cache key.
type Spec struct {
	// Analysis is "psa" or "leaflet".
	Analysis string `json:"analysis"`
	// Engine is "serial", "spark", "dask", "mpi", "pilot" or "fleet"
	// (default "serial").
	Engine string `json:"engine,omitempty"`
	// Parallelism is the worker/rank count (0: automatic — GOMAXPROCS
	// for shared-memory engines, 4 ranks/cores for mpi/pilot).
	Parallelism int `json:"parallelism,omitempty"`
	// Tasks bounds the task count (0: one per worker for PSA, 1024 for
	// Leaflet Finder, matching the paper; at most MaxTasks). The Leaflet
	// tree approach plans fewer tiles, by cost, for the spec's ranks.
	Tasks int `json:"tasks,omitempty"`

	// Method is the PSA Hausdorff kernel: "naive" (default),
	// "early-break", "pruned" or "indexed". All four produce identical
	// matrices (see docs/kernels.md for the contract).
	Method string `json:"method,omitempty"`
	// FullMatrix disables PSA's symmetry-aware schedule (paper-faithful
	// full N×N grid).
	FullMatrix bool `json:"full_matrix,omitempty"`
	// MaxResidentFrames, when positive, streams PSA trajectories as
	// bounded frame windows instead of materializing them: with an
	// on-disk Path no engine task ever holds more than two windows of
	// frames, and even synthetic inputs run the windowed kernel. The
	// matrix is bit-identical to the in-memory run. Two caveats: the
	// pilot engine's staging client still materializes the window blobs
	// it stages (the in-process simulation of filesystem staging —
	// pilot unit processes are windowed, the submitting client is not),
	// and the server's content-addressed cache digests a streamed input
	// by scanning it once per submission.
	MaxResidentFrames int `json:"max_resident_frames,omitempty"`

	// Approach is the Leaflet Finder architecture: "broadcast"|"1",
	// "task2d"|"2", "parallel-cc"|"3" or "tree"|"4" (default "tree").
	// The staged engines (pilot, fleet) run every approach as one unit
	// per planned tile shipping partial components; "tree" selects their
	// cell-list kernel and its tiles planned by cost.
	Approach string `json:"approach,omitempty"`
	// Cutoff is the Leaflet Finder neighbor cutoff in Å (default
	// synth.BilayerCutoff).
	Cutoff float64 `json:"cutoff,omitempty"`

	// Path points at on-disk input: a directory of .mdt trajectories for
	// PSA, a single-frame .mdt membrane file for Leaflet Finder.
	// Exactly one of Path and Synth must be set.
	Path string `json:"path,omitempty"`
	// Synth generates the input instead of reading it from disk.
	Synth *SynthSpec `json:"synth,omitempty"`
}

// ParseEngine canonicalizes an engine name, accepting every registered
// engine ("" defaults to serial).
func ParseEngine(s string) (string, error) {
	if s == "" {
		return EngineSerial, nil
	}
	for _, e := range Engines {
		if s == e {
			return e, nil
		}
	}
	return "", fmt.Errorf("jobs: unknown engine %q (want serial|spark|dask|mpi|pilot|fleet)", s)
}

// ParseApproach canonicalizes a Leaflet Finder approach name, accepting
// the cmd/leaflet aliases ("" defaults to tree).
func ParseApproach(s string) (leaflet.Approach, string, error) {
	switch s {
	case "1", "broadcast":
		return leaflet.Broadcast1D, "broadcast", nil
	case "2", "task2d":
		return leaflet.TaskAPI2D, "task2d", nil
	case "3", "parallel-cc":
		return leaflet.ParallelCC, "parallel-cc", nil
	case "", "4", "tree":
		return leaflet.TreeSearch, "tree", nil
	default:
		return 0, "", fmt.Errorf("jobs: unknown approach %q (want broadcast|task2d|parallel-cc|tree)", s)
	}
}

// ParseMethod canonicalizes a PSA Hausdorff method name, accepting every
// hausdorff kernel ("" defaults to naive).
func ParseMethod(s string) (string, error) {
	m, err := hausdorff.ParseMethod(s)
	if err != nil {
		return "", fmt.Errorf("jobs: %w", err)
	}
	return m.String(), nil
}

// Normalized validates the spec and fills every defaultable field, so
// that two specs describing the same work hash identically.
func (s Spec) Normalized() (Spec, error) {
	switch s.Analysis {
	case AnalysisPSA, AnalysisLeaflet:
	case "":
		return Spec{}, fmt.Errorf("jobs: analysis is required (psa|leaflet)")
	default:
		return Spec{}, fmt.Errorf("jobs: unknown analysis %q (want psa|leaflet)", s.Analysis)
	}
	eng, err := ParseEngine(s.Engine)
	if err != nil {
		return Spec{}, err
	}
	s.Engine = eng
	if s.Parallelism < 0 {
		s.Parallelism = 0
	}
	if s.Parallelism > MaxParallelism {
		return Spec{}, fmt.Errorf("jobs: parallelism %d exceeds %d", s.Parallelism, MaxParallelism)
	}
	if s.Tasks < 0 {
		s.Tasks = 0
	}
	if s.Tasks > MaxTasks {
		return Spec{}, fmt.Errorf("jobs: tasks %d exceeds %d", s.Tasks, MaxTasks)
	}
	if (s.Path == "") == (s.Synth == nil) {
		return Spec{}, fmt.Errorf("jobs: exactly one of path and synth must be set")
	}

	if s.MaxResidentFrames < 0 {
		s.MaxResidentFrames = 0
	}

	switch s.Analysis {
	case AnalysisPSA:
		m, err := ParseMethod(s.Method)
		if err != nil {
			return Spec{}, err
		}
		s.Method = m
		s.Approach, s.Cutoff = "", 0
		if s.Synth != nil {
			syn, err := normalizedPSASynth(*s.Synth)
			if err != nil {
				return Spec{}, err
			}
			if err := s.checkPlan(syn.Count); err != nil {
				return Spec{}, err
			}
			s.Synth = &syn
		}
	case AnalysisLeaflet:
		_, name, err := ParseApproach(s.Approach)
		if err != nil {
			return Spec{}, err
		}
		s.Approach = name
		if s.Cutoff < 0 {
			return Spec{}, fmt.Errorf("jobs: cutoff must be positive, got %g", s.Cutoff)
		}
		if s.Cutoff == 0 {
			s.Cutoff = synth.BilayerCutoff
		}
		s.Method, s.FullMatrix, s.MaxResidentFrames = "", false, 0
		if s.Tasks == 0 {
			s.Tasks = 1024
		}
		if s.Synth != nil {
			syn, err := normalizedLeafletSynth(*s.Synth)
			if err != nil {
				return Spec{}, err
			}
			s.Synth = &syn
		}
	}
	return s, nil
}

// MaxSynthBytes bounds what one synth spec may ask the server to
// generate: a PSA ensemble's coordinate payload (count × frames × atoms
// × 24 B) and its count × count float64 distance matrix, and a Leaflet
// membrane's coordinates (atoms × 24 B). Generation runs on the submit
// path, and an allocation the machine cannot satisfy is a fatal runtime
// error, not a recoverable panic, so one oversized POST would otherwise
// kill the server. 1 GiB admits every paper preset: a large (13364 ×
// 102) ensemble of up to 32 trajectories, and the 4M-atom membrane
// (96 MB). It bounds the input, not the run: a job's resident set is a
// small multiple of its payload (a generated PSA ensemble is packed in
// place, but engines add their own buffers), and a Leaflet run's
// neighbour graph is larger still.
const MaxSynthBytes = 1 << 30

// MaxParallelism bounds a spec's worker/rank count. An mpi world of p
// ranks allocates 2·p² buffered channels up front (p = 256: about 40 MB),
// so an unbounded value is another fatal, unrecoverable allocation on a
// request's say-so. 256 is far above every core count the CLIs, smoke
// scripts and benchmark use (at most 8).
const MaxParallelism = 256

// MaxTasks bounds a spec's task count, which sizes a plan on a
// request's say-so: a Leaflet grid of p chunks has p(p+1)/2 tiles, and
// a PSA partition holds about tasks blocks. 1<<16 admits the paper's
// 42k-task repartitioning of the 4M-atom Leaflet run and every count
// the CLIs, smoke scripts and benchmark use (at most 1024).
const MaxTasks = 1 << 16

// MaxPSABlocks bounds the blocks of a PSA plan, counted before the plan
// (or, for a synth ensemble, the input) is built. The partition cuts n
// members into groups of the largest n1 dividing n with (n/n1)² ≥ the
// wanted tasks, so a prime n can only be cut into n single-member
// groups, n(n+1)/2 blocks (n² on the full matrix), whatever tasks says:
// 11 579 members, which MaxSynthBytes admits at 1 atom × 1 frame, would
// plan 67 M, 2.1 GB of psa.Block. The plan gets the byte budget the
// input and the matrix get: MaxSynthBytes of blocks at 32 B each (four
// ints on a 64-bit host; fixed, so a 32-bit build admits the same
// specs), 33 554 432 blocks. Every prime ensemble up to 8191 members
// fits (5791 on the full matrix).
const MaxPSABlocks = MaxSynthBytes / 32

// synthFits reports whether 24 B (one Vec3) times every factor stays
// within MaxSynthBytes, checking each step before it could overflow.
// Factors are positive (normalization has filled the defaults).
func synthFits(factors ...int) bool {
	n := int64(24)
	for _, f := range factors {
		if int64(f) > MaxSynthBytes/n {
			return false
		}
		n *= int64(f)
	}
	return true
}

// normalizedPSASynth fills a PSA generator spec's defaults.
func normalizedPSASynth(g SynthSpec) (SynthSpec, error) {
	if g.Preset != "" {
		found := false
		for _, p := range synth.EnsemblePresets {
			if p.Name == g.Preset {
				g.Atoms, g.Frames, found = p.NAtoms, p.NFrames, true
				break
			}
		}
		if !found {
			return SynthSpec{}, fmt.Errorf("jobs: unknown ensemble preset %q (want small|medium|large)", g.Preset)
		}
	}
	if g.Count <= 0 {
		g.Count = 4
	}
	if g.Atoms <= 0 {
		g.Atoms = 16
	}
	if g.Frames <= 0 {
		g.Frames = 8
	}
	if !synthFits(g.Count, g.Frames, g.Atoms) {
		return SynthSpec{}, fmt.Errorf("jobs: synth ensemble of %d × %d frames × %d atoms exceeds %d bytes of coordinates", g.Count, g.Frames, g.Atoms, MaxSynthBytes)
	}
	if int64(g.Count) > MaxSynthBytes/8/int64(g.Count) {
		return SynthSpec{}, fmt.Errorf("jobs: synth ensemble of %d trajectories exceeds a %d-byte distance matrix", g.Count, MaxSynthBytes)
	}
	return g, nil
}

// normalizedLeafletSynth fills a membrane generator spec's defaults.
func normalizedLeafletSynth(g SynthSpec) (SynthSpec, error) {
	if g.Preset != "" {
		found := false
		for _, p := range synth.MembranePresets {
			if p.Name == g.Preset {
				g.Atoms, found = p.NAtoms, true
				break
			}
		}
		if !found {
			return SynthSpec{}, fmt.Errorf("jobs: unknown membrane preset %q (want 131k|262k|524k|4M)", g.Preset)
		}
	}
	g.Count, g.Frames = 0, 0
	if g.Atoms <= 0 {
		g.Atoms = 2048
	}
	if g.Atoms < 2 { // one atom per leaflet at least: synth.Bilayer panics below
		return SynthSpec{}, fmt.Errorf("jobs: synth membrane of %d atoms: a bilayer needs at least 2", g.Atoms)
	}
	if !synthFits(g.Atoms) {
		return SynthSpec{}, fmt.Errorf("jobs: synth membrane of %d atoms exceeds %d bytes of coordinates", g.Atoms, MaxSynthBytes)
	}
	return g, nil
}

// RunnerName is the registry key of an (analysis, engine) pair.
func RunnerName(analysis, engine string) string { return analysis + "/" + engine }

// CacheKey content-addresses a normalized spec plus the digest of its
// resolved input data. Result-invariant parameters are normalized out:
// the PSA kernel method (naive, early-break, pruned and indexed are
// all exact — they produce bit-identical matrices), the FullMatrix schedule
// toggle (the symmetric schedule mirrors the identical values), and
// MaxResidentFrames (the streamed kernel is bit-identical to the
// in-memory one), so a resubmission differing only in those hits the
// existing entry. Fields
// that change where or how much engine work runs (engine, sizing) stay
// in the key, so resubmitting on a different engine re-runs.
//
// The version prefix names how a result was computed, and moves
// whenever that changes a result's bits: v3 was the eight-lane dRMS
// summation of internal/linalg; v4 keeps it and adds the tree approach's
// tiles chosen by cost (internal/leaflet, treeBlocks), whose count and
// shuffle bytes a Leaflet result's Stats carry. A done job recovered
// from a journal written under another version then has a key no new
// job computes, so it is never compared with a result computed the new
// way, and mdtask_jobs_result_digest_mismatch_total counts only real
// mismatches.
//
// The hashed text is "v4|analysis|engine|p=parallelism|t=tasks|
// a=approach|c=cutoff|in=digest", the integers in decimal and the
// cutoff in hexadecimal floating point (strconv's 'x' format, exact for
// every float64), built with appends instead of fmt.
func CacheKey(s Spec, inputDigest string) string {
	b := make([]byte, 0, 128+len(inputDigest))
	b = append(b, "v4|"...)
	b = append(b, s.Analysis...)
	b = append(b, '|')
	b = append(b, s.Engine...)
	b = append(b, "|p="...)
	b = strconv.AppendInt(b, int64(s.Parallelism), 10)
	b = append(b, "|t="...)
	b = strconv.AppendInt(b, int64(s.Tasks), 10)
	b = append(b, "|a="...)
	b = append(b, s.Approach...)
	b = append(b, "|c="...)
	b = strconv.AppendFloat(b, s.Cutoff, 'x', -1, 64)
	b = append(b, "|in="...)
	b = append(b, inputDigest...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
