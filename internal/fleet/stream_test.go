package fleet

import (
	"path/filepath"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/psa"
	"mdtask/internal/traj"
)

// A streamed fleet PSA job must be bit-identical to the serial
// reference for every method and both schedules, with workers fetching
// window blobs (never the whole-ensemble payload), and the
// coordinator's metrics carrying the streamed residency/volume
// accounting.
func TestFleetPSAStreamedMatchesSerial(t *testing.T) {
	lf, err := StartLocal(2, LocalOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	const n, atoms, frames, window = 4, 6, 5, 2
	ens := testEnsemble(n, atoms, frames, 17)

	// File-backed refs: the coordinator serves windows straight from
	// disk, so neither side materializes the ensemble.
	dir := t.TempDir()
	refs := make(traj.RefEnsemble, n)
	for i, tr := range ens {
		path := filepath.Join(dir, trName(i)+".mdt")
		if err := traj.WriteMDTFile(path, tr, 8); err != nil {
			t.Fatal(err)
		}
		refs[i], err = traj.FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, method := range hausdorff.Methods {
		for _, sym := range []bool{true, false} {
			want, err := psa.SerialRefs(traj.RefsOf(ens), psa.Opts{Symmetric: sym, Method: method})
			if err != nil {
				t.Fatal(err)
			}
			var m engine.Metrics
			opts := psa.Opts{Symmetric: sym, Method: method, MaxResidentFrames: window}
			job, err := lf.C.SubmitPSARefs(refs, 2, opts, &m)
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(nil); err != nil {
				t.Fatalf("%v sym=%v: %v", method, sym, err)
			}
			got := job.Matrix()
			lf.C.Drop(job)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%v sym=%v: streamed fleet matrix differs from serial at %d", method, sym, i)
				}
			}
			snap := m.Snapshot()
			if snap.PeakResidentFrames == 0 || snap.PeakResidentFrames > 2*window {
				t.Fatalf("%v sym=%v: peak resident %d frames, want 1..%d", method, sym, snap.PeakResidentFrames, 2*window)
			}
			if snap.BytesStreamed <= 0 {
				t.Fatalf("%v sym=%v: no streamed bytes recorded", method, sym)
			}
			pairs := int64(n*n) * 2 * frames * frames
			if sym {
				pairs = int64(n*(n-1)/2) * 2 * frames * frames
			}
			if total := snap.PairsEvaluated + snap.PairsPruned + snap.PairsAbandoned; total != pairs {
				t.Fatalf("%v sym=%v: counters sum %d, want %d", method, sym, total, pairs)
			}
		}
	}
}

func trName(i int) string { return string([]byte{'t', byte('0' + i)}) }

// A streamed job serves windows, not a whole-input payload; window
// requests outside the job's geometry are rejected.
func TestCoordinatorWindowEndpointBounds(t *testing.T) {
	c := NewCoordinator(LocalOptions())
	defer c.Close()
	ens := testEnsemble(2, 4, 5, 5)
	job, err := c.SubmitPSARefs(traj.RefsOf(ens), 1, psa.Opts{Symmetric: true, MaxResidentFrames: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drop(job)
	if _, ok := c.inputOf(job.ID()); ok {
		t.Fatal("streamed job serves a whole-input payload")
	}
	blob, err := c.windowOf(job.ID(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := traj.DecodeMDT(blob)
	if err != nil {
		t.Fatal(err)
	}
	if part.NFrames() != 2 || part.NAtoms != 4 {
		t.Fatalf("window 0 is %d×%d, want 2 frames × 4 atoms", part.NFrames(), part.NAtoms)
	}
	// Final window is the remainder.
	last, err := c.windowOf(job.ID(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := traj.DecodeMDT(last)
	if err != nil {
		t.Fatal(err)
	}
	if lt.NFrames() != 1 {
		t.Fatalf("last window has %d frames, want 1", lt.NFrames())
	}
	for _, bad := range [][2]int{{0, 3}, {0, -1}, {2, 0}, {-1, 0}} {
		if _, err := c.windowOf(job.ID(), bad[0], bad[1]); err == nil {
			t.Fatalf("window request traj=%d win=%d accepted", bad[0], bad[1])
		}
	}
	if _, err := c.windowOf("fj-none", 0, 0); err == nil {
		t.Fatal("window request for unknown job accepted")
	}
	// Non-streamed jobs refuse window requests.
	job2, err := c.SubmitPSARefs(traj.RefsOf(ens), 1, psa.Opts{Symmetric: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Drop(job2)
	if _, err := c.windowOf(job2.ID(), 0, 0); err == nil {
		t.Fatal("window request for in-memory job accepted")
	}
}
