package psa

import (
	"errors"
	"fmt"
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
						MaxResidentFrames: w, Env: engine.Env{Metrics: sink},
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

// A streamed comparison reads each side front to back once — the probe
// passes — and that pass is what verifies a plain .mdt payload
// checksum (the sweep reads by random access). One flipped payload bit
// in either trajectory of the comparison must fail the job with
// traj.ErrChecksum, for every method and window size.
func TestStreamedDetectsCorruptPayload(t *testing.T) {
	const atoms, frames = 5, 9
	ens := testEnsemble(2, atoms, frames)
	for corrupt := range ens {
		dir := t.TempDir()
		refs := make(traj.RefEnsemble, len(ens))
		for i, tr := range ens {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.mdt", tr.Name, i))
			if err := traj.WriteMDTFile(path, tr, 4); err != nil {
				t.Fatal(err)
			}
			if i == corrupt {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// The low mantissa bit of the first coordinate of the
				// middle frame: still finite, only the checksum can tell.
				frameBytes := 8 + atoms*3*4
				payload := len(raw) - 4 - frames*frameBytes
				raw[payload+(frames/2)*frameBytes+8] ^= 0x01
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if refs[i], err = traj.FileRef(path); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range hausdorff.Methods {
			for _, w := range []int{1, 4, frames} {
				_, err := SerialRefs(refs, Opts{Symmetric: true, Method: m, MaxResidentFrames: w})
				if !errors.Is(err, traj.ErrChecksum) {
					t.Fatalf("trajectory %d corrupted, %v w=%d: err = %v, want ErrChecksum", corrupt, m, w, err)
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
		Env: engine.Env{Cancel: func() bool { calls++; return calls > 2 }},
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
			for i := range part.NFrames() {
				if got, want := part.Times[i], src.Times[win*w+i]; got != want {
					t.Fatalf("window %d frame %d: time %v != %v", win, i, got, want)
				}
				f, wantF := part.FrameCoords(i), src.FrameCoords(win*w+i)
				for a := range f {
					if f[a] != wantF[a] {
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
