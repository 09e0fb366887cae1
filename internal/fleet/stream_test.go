package fleet

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
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
			job := submitPSA(t, lf.C, refs, 2, opts, &m)
			if err := job.Wait(nil); err != nil {
				t.Fatalf("%v sym=%v: %v", method, sym, err)
			}
			got := matrixOf(job)
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

// A streamed job serves its trajectories window by window, each window
// a blob its units name; names outside the job's geometry, of another
// job or of no job are refused, and an in-memory job serves whole
// trajectories, never windows.
func TestCoordinatorWindowEndpointBounds(t *testing.T) {
	c, url := startCoordinator(t, LocalOptions())
	ens := testEnsemble(2, 4, 5, 5)
	job := submitPSA(t, c, traj.RefsOf(ens), 1, psa.Opts{Symmetric: true, MaxResidentFrames: 2}, nil)
	defer c.Drop(job)
	// Unit 0 is the diagonal block of trajectory 0: its three windows.
	u := job.run.Units()[0]
	if !u.Stream || len(u.Inputs) != 3 {
		t.Fatalf("streamed unit 0 reads %d blobs (stream=%v), want 3 windows", len(u.Inputs), u.Stream)
	}
	get := func(jobID, name string) ([]byte, int) {
		t.Helper()
		resp, err := http.Get(url + "/v1/fleet/jobs/" + jobID + "/input/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return blob, resp.StatusCode
	}
	for i, want := range []int{2, 2, 1} { // the final window is the remainder
		blob, code := get(job.id, u.Inputs[i])
		if code != http.StatusOK {
			t.Fatalf("window %s answered %d", u.Inputs[i], code)
		}
		part, err := traj.DecodeMDT(blob)
		if err != nil {
			t.Fatal(err)
		}
		if part.NFrames() != want || part.NAtoms != 4 {
			t.Fatalf("window %d is %d×%d, want %d frames × 4 atoms", i, part.NFrames(), part.NAtoms, want)
		}
	}
	first, last := u.Inputs[0], u.Inputs[2]
	for _, bad := range []string{
		strings.Replace(last, "w00002", "w00003", 1),
		strings.Replace(first, "w00000", "w-0001", 1),
		strings.Replace(first, "traj-0000", "traj-0002", 1),
		strings.Replace(first, "traj-0000", "traj--001", 1),
		strings.Replace(first, "w00000", "w0", 1),
		"atoms-0-1.bin",
	} {
		if _, code := get(job.id, bad); code != http.StatusNotFound {
			t.Fatalf("input %q answered %d, want 404", bad, code)
		}
	}
	if _, code := get("fj-none", first); code != http.StatusNotFound {
		t.Fatalf("input of an unknown job answered %d, want 404", code)
	}
	// In-memory jobs serve a trajectory as one blob and refuse windows.
	job2 := submitPSA(t, c, traj.RefsOf(ens), 1, psa.Opts{Symmetric: true}, nil)
	defer c.Drop(job2)
	if in := job2.run.Units()[0].Inputs; job2.run.Units()[0].Stream || len(in) != 1 || in[0] != first {
		t.Fatalf("in-memory unit 0 reads %v, want the whole trajectory %s", in, first)
	}
	if blob, code := get(job2.id, first); code != http.StatusOK {
		t.Fatalf("whole trajectory answered %d", code)
	} else if whole, err := traj.DecodeMDT(blob); err != nil || whole.NFrames() != 5 {
		t.Fatalf("whole trajectory decodes to %v frames (err %v), want 5", whole, err)
	}
	if _, code := get(job2.id, u.Inputs[1]); code != http.StatusNotFound {
		t.Fatalf("window request for in-memory job answered %d, want 404", code)
	}
}
