package jobs

import (
	"strings"
	"testing"

	"mdtask/internal/synth"
)

func validPSASpec() Spec {
	return Spec{
		Analysis: AnalysisPSA,
		Engine:   EngineSpark,
		Synth:    &SynthSpec{Count: 3, Atoms: 8, Frames: 4, Seed: 7},
	}
}

func validLeafletSpec() Spec {
	return Spec{
		Analysis: AnalysisLeaflet,
		Engine:   EngineSpark,
		Approach: "task2d",
		Tasks:    16,
		Synth:    &SynthSpec{Atoms: 600, Seed: 9},
	}
}

func TestNormalizedDefaults(t *testing.T) {
	s, err := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine != EngineSerial || s.Method != "naive" {
		t.Errorf("got engine=%q method=%q", s.Engine, s.Method)
	}
	if g := s.Synth; g.Count != 4 || g.Atoms != 16 || g.Frames != 8 {
		t.Errorf("synth defaults not applied: %+v", g)
	}
	// Seed 0 is a valid seed, not a defaultable zero value.
	if s.Synth.Seed != 0 {
		t.Errorf("seed 0 was remapped to %d", s.Synth.Seed)
	}

	l, err := Spec{Analysis: AnalysisLeaflet, Synth: &SynthSpec{}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if l.Approach != "tree" || l.Cutoff <= 0 || l.Tasks != 1024 {
		t.Errorf("leaflet defaults not applied: %+v", l)
	}
}

func TestNormalizedPresets(t *testing.T) {
	s, err := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Preset: "small", Count: 2}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Synth.Atoms != 3341 || s.Synth.Frames != 102 {
		t.Errorf("preset dims not applied: %+v", s.Synth)
	}
	l, err := Spec{Analysis: AnalysisLeaflet, Synth: &SynthSpec{Preset: "131k"}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if l.Synth.Atoms != 131072 {
		t.Errorf("membrane preset not applied: %+v", l.Synth)
	}
}

// TestSynthCeilingAdmitsPresets: MaxSynthBytes admits every preset the
// README documents — each ensemble preset at up to 32 trajectories and
// every membrane preset — and the largest payload that fits is
// accepted while one more atom is not.
func TestSynthCeilingAdmitsPresets(t *testing.T) {
	for _, p := range synth.EnsemblePresets {
		if _, err := (Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Preset: p.Name, Count: 32}}).Normalized(); err != nil {
			t.Errorf("ensemble preset %s × 32: %v", p.Name, err)
		}
	}
	for _, p := range synth.MembranePresets {
		if _, err := (Spec{Analysis: AnalysisLeaflet, Synth: &SynthSpec{Preset: p.Name}}).Normalized(); err != nil {
			t.Errorf("membrane preset %s: %v", p.Name, err)
		}
	}
	edge := Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{Count: 1, Frames: 1, Atoms: MaxSynthBytes / 24}}
	if _, err := edge.Normalized(); err != nil {
		t.Errorf("largest payload within MaxSynthBytes rejected: %v", err)
	}
	edge.Synth.Atoms++
	if _, err := edge.Normalized(); err == nil {
		t.Error("payload just past MaxSynthBytes accepted")
	}
}

func TestNormalizedErrors(t *testing.T) {
	cases := map[string]Spec{
		"missing analysis":              {Synth: &SynthSpec{}},
		"unknown analysis":              {Analysis: "docking", Synth: &SynthSpec{}},
		"unknown engine":                {Analysis: AnalysisPSA, Engine: "hadoop", Synth: &SynthSpec{}},
		"unknown method":                {Analysis: AnalysisPSA, Method: "exact", Synth: &SynthSpec{}},
		"unknown approach":              {Analysis: AnalysisLeaflet, Approach: "5", Synth: &SynthSpec{}},
		"pilot non-task2d":              {Analysis: AnalysisLeaflet, Engine: EnginePilot, Approach: "tree", Synth: &SynthSpec{}},
		"negative cutoff":               {Analysis: AnalysisLeaflet, Cutoff: -1, Synth: &SynthSpec{}},
		"no input":                      {Analysis: AnalysisPSA},
		"two inputs":                    {Analysis: AnalysisPSA, Path: "/tmp", Synth: &SynthSpec{}},
		"unknown psa preset":            {Analysis: AnalysisPSA, Synth: &SynthSpec{Preset: "huge"}},
		"unknown mem preset":            {Analysis: AnalysisLeaflet, Synth: &SynthSpec{Preset: "1M"}},
		"synth atoms x 24 B overflows":  {Analysis: AnalysisPSA, Synth: &SynthSpec{Atoms: 1 << 60, Frames: 2}},
		"synth over the ceiling":        {Analysis: AnalysisPSA, Synth: &SynthSpec{Count: 33, Preset: "large"}},
		"synth matrix over the ceiling": {Analysis: AnalysisPSA, Synth: &SynthSpec{Count: 20000, Atoms: 1, Frames: 1}},
		"synth membrane over ceiling":   {Analysis: AnalysisLeaflet, Synth: &SynthSpec{Atoms: MaxSynthBytes/24 + 1}},
	}
	for name, spec := range cases {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseEngineNames(t *testing.T) {
	for _, e := range Engines {
		got, err := ParseEngine(e)
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %q, %v", e, got, err)
		}
	}
	if got, err := ParseEngine(""); err != nil || got != EngineSerial {
		t.Errorf("empty engine: got %q, %v", got, err)
	}
	if _, err := ParseEngine("hadoop"); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	base, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := func(mutate func(*Spec)) string {
		s := base
		if mutate != nil {
			mutate(&s)
		}
		return CacheKey(s, "digest")
	}
	if key(nil) != key(nil) {
		t.Error("cache key not deterministic")
	}
	mutations := map[string]func(*Spec){
		"engine":      func(s *Spec) { s.Engine = EngineMPI },
		"parallelism": func(s *Spec) { s.Parallelism = 8 },
		"tasks":       func(s *Spec) { s.Tasks = 9 },
	}
	for name, m := range mutations {
		if key(m) == key(nil) {
			t.Errorf("cache key ignores %s", name)
		}
	}
	if CacheKey(base, "other-digest") == key(nil) {
		t.Error("cache key ignores input digest")
	}
	// Result-invariant parameters are normalized out of the key: every
	// kernel method produces the identical matrix, as does the full
	// (non-symmetric) schedule.
	invariant := map[string]func(*Spec){
		"method early-break": func(s *Spec) { s.Method = "early-break" },
		"method pruned":      func(s *Spec) { s.Method = "pruned" },
		"full matrix":        func(s *Spec) { s.FullMatrix = true },
	}
	for name, m := range invariant {
		if key(m) != key(nil) {
			t.Errorf("cache key varies with result-invariant %s", name)
		}
	}
}

func TestResolveInputDigestStability(t *testing.T) {
	spec, err := validPSASpec().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(t, a) != digestOf(t, b) {
		t.Error("regenerated synth input digests differ")
	}
	spec.Synth.Seed++
	c, err := ResolveInput(spec)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(t, c) == digestOf(t, a) {
		t.Error("digest ignores the generated content")
	}
}

func digestOf(t *testing.T, in *Input) string {
	t.Helper()
	d, err := in.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunnerNameAndRegistry(t *testing.T) {
	reg := DefaultRegistry()
	names := reg.Names()
	if len(names) != len(Engines)*len(Analyses) {
		t.Fatalf("got %d runners: %v", len(names), names)
	}
	for _, a := range Analyses {
		for _, e := range Engines {
			if _, ok := reg.Lookup(RunnerName(a, e)); !ok {
				t.Errorf("missing runner %s", RunnerName(a, e))
			}
		}
	}
	if err := reg.Register(RunnerName(AnalysisPSA, EngineSerial), func(*RunContext, Spec, *Input) (*Result, error) { return nil, nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Error("nil runner accepted")
	}
	if !strings.Contains(RunnerName("psa", "mpi"), "/") {
		t.Error("runner name not namespaced")
	}
}
