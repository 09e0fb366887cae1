package jobs

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mdtask/internal/linalg"
	"mdtask/internal/proptest"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// TestStagingGolden pins what staging produces for synth inputs at one
// and at four cores: the digest that addresses the input, its cache key,
// and the content digest of the coordinates generated. The addressing
// digests are recipe digests (synth.WalkDigest, synth.BilayerDigest),
// which moved every synth key once when they replaced the SHA-256 of the
// generated coordinates; the content digests are the values those keys
// were built from before, so they still pin what the generators write.
// A generator whose output changes fails here until its version moves
// (and the pins with it): the recipe digest would otherwise name two
// different contents. Every block key and every cached result hangs off
// the addressing digests, so a change to one silently invalidates every
// store.
func TestStagingGolden(t *testing.T) {
	cases := []struct {
		spec                 Spec
		digest, key, content string
	}{
		{
			Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{}}, // 4×16×8, seed 0
			"9d9718f2b914b908ccf3a43e7411ad561e603b359b97c3f83c18b77d52833635",
			"76d83e09deee83c92cf416efe723124fe200b3ff54cacd5cb3e8becdc1b84e43",
			"f896e7ffc4d9243ad3e3a8b783efafb7e3d9cbe3a3ec3ca65e5284903c4c6607",
		},
		{
			Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
				Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1000}},
			"808586ae0d1112e762da87a9af3261a82f02bc8523be94df0d3abc51a7491ae6",
			"1ff9e1940e0427f861dc77fe2f35340ea3b2e496a495b7dc9f83bdcac29735cc",
			"8e4a646e88afcc94201c004741c1eedf3e59609d5c924da6bbcaae5972bd2f9d",
		},
		{
			Spec{Analysis: AnalysisLeaflet, Synth: &SynthSpec{}}, // 2048 atoms, seed 0
			"20841d08706c065e07863a9da64a5f70799d523895854240743fb6161226ebaf",
			"14ddb0bc16c92e1364d38a6fb60ca411c98cab30a0f42cf82461a4277ef19fe2",
			"34e7d2b283a365a8f2fd6852357033af3a81f4f9c67a5f9db8450f2eb47f7a0c",
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			norm, err := c.spec.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			in, err := ResolveInput(norm)
			if err != nil {
				t.Fatal(err)
			}
			d, err := in.ContentDigest()
			if err != nil {
				t.Fatal(err)
			}
			if d != c.digest {
				t.Errorf("GOMAXPROCS=%d %s %+v: digest %s, want %s", procs, norm.Analysis, *norm.Synth, d, c.digest)
			}
			if k := CacheKey(norm, d); k != c.key {
				t.Errorf("GOMAXPROCS=%d %s %+v: cache key %s, want %s", procs, norm.Analysis, *norm.Synth, k, c.key)
			}
			if got := generatedContent(t, in); got != c.content {
				t.Errorf("GOMAXPROCS=%d %s %+v: generated content digest %s, want %s: the generator's output changed, so bump its version (synth.WalkVersion, synth.BilayerVersion) and re-pin this case",
					procs, norm.Analysis, *norm.Synth, got, c.content)
			}
		}
	}
}

// generatedContent is the content digest of a resolved input's
// coordinates, whatever addresses the input: a PSA ensemble's as
// memory refs compose it, a membrane's as coordsDigest hashes it.
func generatedContent(t *testing.T, in *Input) string {
	t.Helper()
	if in.Refs == nil {
		return coordsDigest(in.Coords)
	}
	ens, err := in.Refs.Load()
	if err != nil {
		t.Fatal(err)
	}
	d, err := refsDigest(traj.RefsOf(ens))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSynthRecipeDigests checks the recipe digests' properties over
// small generated ensembles: a member's digest does not depend on the
// ensemble's Count (a grown ensemble shares its members' digests, and
// so their cached blocks); it moves with every change of atoms, frames,
// seed or member index; and no recipe digest equals the content digest
// of the data it names, for a member or for the ensemble.
func TestSynthRecipeDigests(t *testing.T) {
	resolve := func(g SynthSpec) *Input {
		norm, err := Spec{Analysis: AnalysisPSA, Synth: &g}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		in, err := ResolveInput(norm)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	memberDigest := func(in *Input, i int) string {
		d, err := in.Refs[i].Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	proptest.Check(t, func(count, grow, atoms, frames uint8, seed uint64, field, delta uint8) bool {
		g := SynthSpec{Count: 1 + int(count%4), Atoms: 1 + int(atoms%8), Frames: 1 + int(frames%4), Seed: seed}
		in := resolve(g)
		grown := g
		grown.Count += 1 + int(grow%3)
		big := resolve(grown)
		for i := range g.Count {
			d := memberDigest(in, i)
			if memberDigest(big, i) != d {
				t.Logf("%+v member %d: digest moves when the ensemble grows to %d", g, i, grown.Count)
				return false
			}
			tr, err := in.Refs[i].Load()
			if err != nil {
				t.Fatal(err)
			}
			content, err := traj.MemRef(tr).Digest()
			if err != nil {
				t.Fatal(err)
			}
			if d == content {
				t.Logf("%+v member %d: recipe digest equals the content digest", g, i)
				return false
			}
		}
		if d, _ := in.ContentDigest(); d == generatedContent(t, in) {
			t.Logf("%+v: ensemble digest equals its content digest", g)
			return false
		}
		// One field of one member's recipe moved by a non-zero step.
		atomsN, framesN, seedN, idx := g.Atoms, g.Frames, g.Seed, uint64(0)
		step := 1 + int(delta%7)
		switch field % 4 {
		case 0:
			atomsN += step
		case 1:
			framesN += step
		case 2:
			seedN += uint64(step)
		case 3:
			idx += uint64(step)
		}
		if synth.WalkDigest(atomsN, framesN, seedN, idx) == memberDigest(in, 0) {
			t.Logf("%+v: field %d moved by %d, same digest", g, field%4, step)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 50})
}

// writeFileInputs writes a three-trajectory PSA directory (float32) and
// a one-frame membrane (float64) whose coordinates are fixed formulas,
// not a generator's output: TestFileInputDigestsUnchanged pins their
// digests, which must not move with any change to internal/synth.
func writeFileInputs(t *testing.T) (psaDir, membrane string) {
	t.Helper()
	dir := t.TempDir()
	psaDir = filepath.Join(dir, "psa")
	if err := os.Mkdir(psaDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		tr := traj.Alloc(fmt.Sprintf("t%d", i), 8, 5)
		for f := range 5 {
			tr.Times[f] = float64(f)
			coords := tr.FrameCoords(f)
			for a := range coords {
				coords[a] = linalg.Vec3{float64(i) + 0.25*float64(f), 0.5 * float64(a), float64(a*f) - 3}
			}
		}
		if err := traj.WriteMDTFile(filepath.Join(psaDir, fmt.Sprintf("t%d.mdt", i)), tr, 4); err != nil {
			t.Fatal(err)
		}
	}
	m := traj.Alloc("membrane", 64, 1)
	for a := range m.Coords {
		m.Coords[a] = linalg.Vec3{float64(a % 8), float64(a / 8), 0.125 * float64(a%2)}
	}
	membrane = filepath.Join(dir, "membrane.mdt")
	if err := traj.WriteMDTFile(membrane, m, 8); err != nil {
		t.Fatal(err)
	}
	return psaDir, membrane
}

// TestFileInputDigestsUnchanged pins the digests and cache keys of
// on-disk inputs — PSA loaded in memory and streamed, and a membrane —
// to the values recorded before synth inputs were addressed by their
// recipe: a file is still addressed by its content.
func TestFileInputDigestsUnchanged(t *testing.T) {
	psaDir, membrane := writeFileInputs(t)
	const psaDigest = "fd74b5e2f00e68903f99f44d662c36af81acbd21cc207c10c4c465651db28cd1"
	cases := []struct {
		spec        Spec
		digest, key string
	}{
		{Spec{Analysis: AnalysisPSA, Path: psaDir}, psaDigest,
			"2d0d40f90badb213c4db289db3640eb1a303b0dce00e5c1347a8005b572389b4"},
		{Spec{Analysis: AnalysisPSA, Engine: EngineDask, Path: psaDir, MaxResidentFrames: 2}, psaDigest,
			"c96895059faff1016a43bab0ec791c645de23c5fdba1cda397d57e06c8e7e002"},
		{Spec{Analysis: AnalysisLeaflet, Path: membrane},
			"616529f34ef295827e4d3cc7724476d19f5c8381113e2e40dbc087b51285767b",
			"4d9f780bfa7cc4a81a25272e41494bc0b1d71374554b8fc417806e99c129cfed"},
	}
	for _, c := range cases {
		norm, err := c.spec.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		in, err := ResolveInput(norm)
		if err != nil {
			t.Fatal(err)
		}
		d, err := in.ContentDigest()
		if err != nil {
			t.Fatal(err)
		}
		if d != c.digest {
			t.Errorf("%s %s (max_resident_frames %d): digest %s, want %s", norm.Analysis, norm.Engine, norm.MaxResidentFrames, d, c.digest)
		}
		if k := CacheKey(norm, d); k != c.key {
			t.Errorf("%s %s (max_resident_frames %d): cache key %s, want %s", norm.Analysis, norm.Engine, norm.MaxResidentFrames, k, c.key)
		}
	}
}

// TestStagingErrorIsLowestIndex: staging runs one task per trajectory,
// but a failure still names the file a sequential loop would have
// stopped at. Files 2 and 5 of eight both hold a non-finite coordinate
// — file 2 deep in a long trajectory, file 5 in its first frame, so
// file 5 tends to fail first in time — and every one of 20 staging runs
// must name file 2, on the in-memory load path and on the streamed
// digest path.
func TestStagingErrorIsLowestIndex(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 8; i++ {
		nFrames := 4
		if i == 2 {
			nFrames = 256
		}
		tr := traj.Alloc(fmt.Sprintf("t%d", i), 16, nFrames)
		for f := range nFrames {
			tr.Times[f] = float64(f)
			coords := tr.FrameCoords(f)
			for a := range coords {
				coords[a] = linalg.Vec3{float64(f), float64(a), float64(i)}
			}
		}
		switch i {
		case 2:
			tr.FrameCoords(nFrames - 1)[15][0] = math.NaN()
		case 5:
			tr.FrameCoords(0)[0][1] = math.Inf(1)
		}
		if err := traj.WriteMDTFile(filepath.Join(dir, fmt.Sprintf("f%d.mdt", i)), tr, 4); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	for _, maxFrames := range []int{0, 2} { // in-memory load, streamed digest
		spec, err := Spec{Analysis: AnalysisPSA, Path: dir, MaxResidentFrames: maxFrames}.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 20; run++ {
			in, err := ResolveInput(spec)
			if err == nil {
				_, err = in.ContentDigest()
			}
			if err == nil || !strings.Contains(err.Error(), "f2.mdt") || strings.Contains(err.Error(), "f5.mdt") {
				t.Fatalf("max_resident_frames=%d run %d: error %v, want one naming f2.mdt", maxFrames, run, err)
			}
		}
	}
}

// TestStreamedAdmissionDigestsEachFileOnce submits one streamed
// ensemble twice: the first admission hashes every member file, the
// second (a whole-job cache hit) reads none of them, and /metrics and
// /v1/metrics both show it. The first job's streamed windows take
// their statistics from the sketches its admission recorded.
func TestStreamedAdmissionDigestsEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	const n = 3
	for i := range n {
		tr := traj.Alloc(fmt.Sprintf("t%d", i), 4, 5)
		for f := range 5 {
			coords := tr.FrameCoords(f)
			for a := range coords {
				coords[a] = linalg.Vec3{float64(i), float64(f), float64(a)}
			}
		}
		if err := traj.WriteMDTFile(filepath.Join(dir, fmt.Sprintf("t%d.mdt", i)), tr, 4); err != nil {
			t.Fatal(err)
		}
	}
	// The digest cache's clock an hour ahead: the files' times are past
	// the racy window, so the first admission's digests are recorded.
	t.Cleanup(traj.SetDigestClock(func() time.Time { return time.Now().Add(time.Hour) }))
	s := NewScheduler(DefaultRegistry(), Options{Workers: 1})
	defer s.Close()
	spec := Spec{Analysis: AnalysisPSA, Engine: EngineSerial, Path: dir, MaxResidentFrames: 2}
	var digests []traj.DigestCacheStats
	for range 2 {
		before := s.Metrics().DigestCache
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, job); st.State != StateDone {
			t.Fatalf("job finished %s (%s)", st.State, st.Error)
		}
		after := s.Metrics().DigestCache
		digests = append(digests, traj.DigestCacheStats{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			WindowStatsSketched: after.WindowStatsSketched - before.WindowStatsSketched,
			WindowStatsComputed: after.WindowStatsComputed - before.WindowStatsComputed,
		})
	}
	if first := digests[0]; first.Misses != n || first.WindowStatsSketched == 0 || first.WindowStatsComputed != 0 {
		t.Fatalf("first admission and run %+v: want %d misses, and every window frame's statistics sketched", first, n)
	}
	if digests[1] != (traj.DigestCacheStats{Hits: n}) {
		t.Fatalf("resubmission %+v: want %d hits and no window read", digests[1], n)
	}
	var prom strings.Builder
	if err := s.Obs().Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"digest_cache_hits", "digest_cache_misses", "digest_cache_racy", "window_stats_sketched", "window_stats_computed"} {
		if series := "mdtask_traj_" + name + "_total"; !strings.Contains(prom.String(), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}

// TestSynthMemberName checks the generated members' names against the
// fmt.Sprintf("synth-%03d", i) they were once built with.
func TestSynthMemberName(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 100, 101, 999, 1000, 12345, math.MaxInt} {
		if got, want := synthMemberName(i), fmt.Sprintf("synth-%03d", i); got != want {
			t.Errorf("synthMemberName(%d) = %q, want %q", i, got, want)
		}
	}
}
