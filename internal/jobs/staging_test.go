package jobs

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// TestStagingGolden pins what staging produces — the content digest and
// the cache key — at one and at four cores. The digests are the values
// recorded before the per-trajectory fan-out and the contiguous
// synth.Walk; the keys are those of CacheKey's v3 prefix (the eight-lane
// dRMS summation), which moved them and nothing else. Every block key
// and every cached result hangs off these, so a change here silently
// invalidates every store.
func TestStagingGolden(t *testing.T) {
	cases := []struct {
		spec        Spec
		digest, key string
	}{
		{
			Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{}}, // 4×16×8, seed 0
			"f896e7ffc4d9243ad3e3a8b783efafb7e3d9cbe3a3ec3ca65e5284903c4c6607",
			"fe5bd73777ca0e527c7937195e7f765e6ed589114858dc766a5c71a8b5c7c47c",
		},
		{
			Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
				Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1000}},
			"8e4a646e88afcc94201c004741c1eedf3e59609d5c924da6bbcaae5972bd2f9d",
			"197e7606136a1a16efef3b1d7633177e6427c14dec9d17ba2be5b1c7a795f8de",
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
				t.Errorf("GOMAXPROCS=%d %+v: digest %s, want %s", procs, *norm.Synth, d, c.digest)
			}
			if k := CacheKey(norm, d); k != c.key {
				t.Errorf("GOMAXPROCS=%d %+v: cache key %s, want %s", procs, *norm.Synth, k, c.key)
			}
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
		tr := traj.New(fmt.Sprintf("t%d", i), 16)
		for f := 0; f < nFrames; f++ {
			coords := make([]linalg.Vec3, 16)
			for a := range coords {
				coords[a] = linalg.Vec3{float64(f), float64(a), float64(i)}
			}
			tr.Frames = append(tr.Frames, traj.Frame{Time: float64(f), Coords: coords})
		}
		switch i {
		case 2:
			tr.Frames[nFrames-1].Coords[15][0] = math.NaN()
		case 5:
			tr.Frames[0].Coords[0][1] = math.Inf(1)
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
		tr := traj.New(fmt.Sprintf("t%d", i), 4)
		for f := range 5 {
			coords := make([]linalg.Vec3, 4)
			for a := range coords {
				coords[a] = linalg.Vec3{float64(i), float64(f), float64(a)}
			}
			if err := tr.AppendFrame(traj.Frame{Coords: coords}); err != nil {
				t.Fatal(err)
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
