package psa

import (
	"os"
	"path/filepath"
	"testing"

	"mdtask/internal/engine"
	"mdtask/internal/hausdorff"
	"mdtask/internal/traj"
)

// The streamed serial path must reproduce the in-memory reference bit
// for bit at every window size — including windows that do not divide
// the frame count — for every kernel method and both schedules, from
// both memory-backed and file-backed refs.
func TestSerialStreamedMatchesInMemory(t *testing.T) {
	const n, atoms, frames = 5, 6, 7
	ens := testEnsemble(n, atoms, frames)
	want, err := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fileRefs := make(traj.RefEnsemble, n)
	for i, tr := range ens {
		path := filepath.Join(dir, tr.Name+"-"+string(rune('a'+i))+".mdt")
		if err := traj.WriteMDTFile(path, tr, 8); err != nil {
			t.Fatal(err)
		}
		fileRefs[i], err = traj.FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, backing := range []struct {
		name string
		refs traj.RefEnsemble
	}{
		{"mem", traj.RefsOf(ens)},
		{"file", fileRefs},
	} {
		for _, m := range hausdorff.Methods {
			for _, sym := range []bool{false, true} {
				for _, w := range []int{1, 2, 3, frames, frames + 5} {
					sink := &engine.Metrics{}
					got, err := SerialRefs(backing.refs, Opts{
						Symmetric: sym, Method: m,
						MaxResidentFrames: w, Metrics: sink,
					})
					if err != nil {
						t.Fatalf("%s/%v sym=%v w=%d: %v", backing.name, m, sym, w, err)
					}
					if !matricesEqual(got, want, 0) {
						t.Fatalf("%s/%v sym=%v w=%d: streamed matrix != in-memory", backing.name, m, sym, w)
					}
					s := sink.Snapshot()
					pairs := int64(n*n) * 2 * frames * frames
					if sym {
						pairs = int64(n*(n-1)/2) * 2 * frames * frames
					}
					if total := s.PairsEvaluated + s.PairsPruned + s.PairsAbandoned; total != pairs {
						t.Fatalf("%s/%v sym=%v w=%d: counters sum %d, want %d", backing.name, m, sym, w, total, pairs)
					}
					bound := int64(2 * w)
					if w > frames {
						bound = 2 * frames
					}
					if s.PeakResidentFrames > bound {
						t.Fatalf("%s/%v sym=%v w=%d: peak resident %d frames exceeds %d", backing.name, m, sym, w, s.PeakResidentFrames, bound)
					}
					if s.BytesStreamed <= 0 {
						t.Fatalf("%s/%v sym=%v w=%d: no bytes accounted as streamed", backing.name, m, sym, w)
					}
				}
			}
		}
	}
}

// The streamed kernel must reproduce the in-memory block exactly, and a window that exceeds the trajectory must degrade to
// one whole-trajectory window.
func TestComputeBlockRefsStreamed(t *testing.T) {
	ens := testEnsemble(6, 5, 4)
	refs := traj.RefsOf(ens)
	for _, sym := range []bool{false, true} {
		blocks, err := Partition(len(ens), 3, sym)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			want := computeBlock(t, ens, b, Opts{Symmetric: sym, Method: hausdorff.Naive})
			got, err := ComputeBlockRefs(refs, b, Opts{Symmetric: sym, Method: hausdorff.Pruned, MaxResidentFrames: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Values) != len(want.Values) {
				t.Fatalf("block %+v: %d values, want %d", b, len(got.Values), len(want.Values))
			}
			for k := range got.Values {
				if got.Values[k] != want.Values[k] {
					t.Fatalf("block %+v value %d: %v != %v", b, k, got.Values[k], want.Values[k])
				}
			}
		}
	}
}

// A cancelled streamed block keeps the full declared shape with the
// unreached values zero.
func TestComputeBlockRefsStreamedCancel(t *testing.T) {
	ens := testEnsemble(4, 5, 6)
	refs := traj.RefsOf(ens)
	calls := 0
	opts := Opts{
		Symmetric: true, MaxResidentFrames: 2,
		Cancel: func() bool { calls++; return calls > 2 },
	}
	b := Block{I0: 0, I1: 4, J0: 0, J1: 4}
	got, err := ComputeBlockRefs(refs, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := b.TaskPairs(true); len(got.Values) != want {
		t.Fatalf("cancelled block has %d values, want %d", len(got.Values), want)
	}
	zeros := 0
	for _, v := range got.Values {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("cancelled block has no zero-filled tail")
	}
}

// Window-staged pilot inputs replay through the streamed kernel: the
// windowed pilot run must match the serial reference exactly, and a
// streamed run stages more, smaller blobs than a whole-file run.
func TestPilotStreamedStagesWindows(t *testing.T) {
	const n, atoms, frames, n1 = 4, 5, 6, 2
	ens := testEnsemble(n, atoms, frames)
	want, err := SerialRefs(traj.RefsOf(ens), Opts{Method: hausdorff.Naive})
	if err != nil {
		t.Fatal(err)
	}
	sink := &engine.Metrics{}
	got, err := RunPilotRefs(testPilot(t), traj.RefsOf(ens), n1, Opts{
		Symmetric: true, Method: hausdorff.Pruned,
		MaxResidentFrames: 2, Metrics: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(got, want, 0) {
		t.Fatal("streamed pilot matrix != serial")
	}
	s := sink.Snapshot()
	if s.PeakResidentFrames == 0 || s.PeakResidentFrames > 4 {
		t.Fatalf("pilot streamed peak resident %d frames, want 1..4", s.PeakResidentFrames)
	}
	if s.BytesStreamed <= 0 {
		t.Fatal("pilot streamed run accounted no streamed bytes")
	}
}

// EncodeMDTWindow windows must round-trip: decoding every window in
// order reproduces the trajectory, whether the ref is memory- or
// file-backed.
func TestEncodeMDTWindowRoundTrip(t *testing.T) {
	ens := testEnsemble(1, 4, 7)
	src := ens[0]
	path := filepath.Join(t.TempDir(), "w.mdt")
	if err := traj.WriteMDTFile(path, src, 8); err != nil {
		t.Fatal(err)
	}
	fr, err := traj.FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []*traj.Ref{traj.MemRef(src), fr} {
		const w = 3
		var frames int
		for win := 0; win < ref.NumWindows(w); win++ {
			blob, err := ref.EncodeMDTWindow(win*w, w, 8)
			if err != nil {
				t.Fatal(err)
			}
			part, err := traj.DecodeMDT(blob)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range part.Frames {
				wantF := src.Frames[win*w+i]
				if f.Time != wantF.Time {
					t.Fatalf("window %d frame %d: time %v != %v", win, i, f.Time, wantF.Time)
				}
				for a := range f.Coords {
					if f.Coords[a] != wantF.Coords[a] {
						t.Fatalf("window %d frame %d atom %d differs", win, i, a)
					}
				}
			}
			frames += part.NFrames()
		}
		if frames != src.NFrames() {
			t.Fatalf("windows cover %d frames, want %d", frames, src.NFrames())
		}
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
