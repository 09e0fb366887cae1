// Package jobs is the serving layer of the repository: the engine table
// (engines.go — the one place an engine name becomes an engine.Executor
// or a pair of staged runners), a registry of named analysis runners
// (analysis × engine) built from it, a bounded FIFO scheduler
// with cooperative cancellation and per-job engine metrics, and a
// content-addressed result cache. cmd/mdserver exposes it over HTTP;
// cmd/psa and cmd/leaflet run their one-shot invocations through the
// same registry.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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

// Analyses lists every analysis name a runner is registered for.
var Analyses = []string{AnalysisPSA, AnalysisLeaflet}

// SynthSpec describes a deterministically generated input, the serving
// analogue of cmd/trajgen: either a paper preset by name or explicit
// dimensions. All generation is a pure function of the fields, so a
// synth job is fully content-addressable.
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
	// Leaflet Finder, matching the paper).
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
	// "task2d"|"2", "parallel-cc"|"3" or "tree"|"4" (default "tree";
	// the pilot engine supports only "task2d").
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
			s.Synth = &syn
		}
	case AnalysisLeaflet:
		_, name, err := ParseApproach(s.Approach)
		if err != nil {
			return Spec{}, err
		}
		s.Approach = name
		if s.Engine == EnginePilot && s.Approach != "task2d" {
			return Spec{}, fmt.Errorf("jobs: the pilot engine supports only the task2d approach, got %q", s.Approach)
		}
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
func CacheKey(s Spec, inputDigest string) string {
	h := sha256.New()
	fmt.Fprintf(h, "v2|%s|%s|p=%d|t=%d|a=%s|c=%x|in=%s",
		s.Analysis, s.Engine, s.Parallelism, s.Tasks,
		s.Approach, s.Cutoff, inputDigest)
	return hex.EncodeToString(h.Sum(nil))
}
