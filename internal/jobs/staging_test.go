package jobs

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/traj"
)

// TestStagingGolden pins what staging produces — the content digest and
// the cache key — to the values recorded before the per-trajectory
// fan-out and the contiguous synth.Walk, at one and at four cores.
// Every block key and every cached result hangs off these, so a change
// here silently invalidates every store.
func TestStagingGolden(t *testing.T) {
	cases := []struct {
		spec        Spec
		digest, key string
	}{
		{
			Spec{Analysis: AnalysisPSA, Synth: &SynthSpec{}}, // 4×16×8, seed 0
			"f896e7ffc4d9243ad3e3a8b783efafb7e3d9cbe3a3ec3ca65e5284903c4c6607",
			"86b572f98e8c08fc161606793956de93445fe7c1b99c1e04dbb4b1d63a7d8d7c",
		},
		{
			Spec{Analysis: AnalysisPSA, Engine: EngineDask, Method: "pruned",
				Synth: &SynthSpec{Count: 8, Atoms: 1024, Frames: 64, Seed: 1000}},
			"8e4a646e88afcc94201c004741c1eedf3e59609d5c924da6bbcaae5972bd2f9d",
			"f28abeaa74608adff9a90b300165dbdf51e8fbbdbda3224cfb2dd4517db4eb39",
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
