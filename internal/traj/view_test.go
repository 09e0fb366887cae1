package traj

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdtask/internal/linalg"
)

// sameBits fails unless two float64 slices agree bit for bit.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// DecodeMDT, ReadMDTFile and Load of a FileRef or a window chain decode
// bit- and time-identical to the per-frame reference decoder.
func TestMDTWholeDecodeMatchesReadAll(t *testing.T) {
	for _, prec := range []int{4, 8} {
		for _, sh := range [][2]int{{0, 3}, {3, 0}, {5, 1}, {7, 9}, {3000, 30}} {
			src := fuzzTraj(sh[0], sh[1], uint64(prec*1000+sh[0]))
			blob, err := EncodeMDT(src, prec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := readAllFrames(blob)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "t.mdt")
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			fromFile, err := ReadMDTFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fromBytes, err := DecodeMDT(blob)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := FileRef(path)
			if err != nil {
				t.Fatal(err)
			}
			fromRef, err := ref.Load()
			if err != nil {
				t.Fatal(err)
			}
			mem := MemRef(want)
			chain, err := WindowChainRef(want.Name, want.NAtoms, want.NFrames(), 4, func(win int) ([]byte, error) {
				return mem.EncodeMDTWindow(win*4, 4, 8)
			})
			if err != nil {
				t.Fatal(err)
			}
			fromChain, err := chain.Load()
			if err != nil {
				t.Fatal(err)
			}
			for label, got := range map[string]*Trajectory{
				"ReadMDTFile": fromFile, "DecodeMDT": fromBytes, "FileRef.Load": fromRef, "chain Load": fromChain,
			} {
				if got.Name != want.Name || got.NAtoms != want.NAtoms || got.NFrames() != want.NFrames() {
					t.Fatalf("prec %d %v %s: %q %d×%d, want %q %d×%d", prec, sh, label,
						got.Name, got.NFrames(), got.NAtoms, want.Name, want.NFrames(), want.NAtoms)
				}
				sameBits(t, label+" Times", got.Times, want.Times)
				sameBits(t, label+" Coords", linalg.Floats(got.Coords), linalg.Floats(want.Coords))
			}
		}
	}
}

// EncodeMDTWindow ships the same bytes whatever backs the ref: a
// float64 .mdt file and a window chain encode every window — inside one
// blob, straddling chain blobs, the short tail, clamped past the end —
// byte-identical to the memory-backed ref.
func TestEncodeMDTWindowSameAcrossBackings(t *testing.T) {
	tr := fuzzTraj(5, 11, 31)
	mem := MemRef(tr)
	path := filepath.Join(t.TempDir(), "w.mdt")
	if err := WriteMDTFile(path, tr, 8); err != nil {
		t.Fatal(err)
	}
	file, err := FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := WindowChainRef(tr.Name, tr.NAtoms, tr.NFrames(), 4, func(win int) ([]byte, error) {
		return mem.EncodeMDTWindow(win*4, 4, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]int{{0, 11}, {0, 4}, {1, 2}, {3, 3}, {2, 7}, {6, 5}, {8, 10}, {10, 1}, {11, 2}, {20, 1}, {0, 0}} {
		for _, prec := range []int{4, 8} {
			want, err := mem.EncodeMDTWindow(w[0], w[1], prec)
			if err != nil {
				t.Fatal(err)
			}
			for label, r := range map[string]*Ref{"file": file, "chain": chain} {
				got, err := r.EncodeMDTWindow(w[0], w[1], prec)
				if err != nil {
					t.Fatalf("%s %v prec %d: %v", label, w, prec, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %v prec %d: blob differs from the memory-backed ref's", label, w, prec)
				}
			}
		}
	}
}

// A regular file whose size disagrees with its header is refused before
// anything is decoded, as FileRef refuses it.
func TestReadMDTFileChecksSize(t *testing.T) {
	blob, err := EncodeMDT(fuzzTraj(3, 4, 1), 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, b := range map[string][]byte{"short": blob[:len(blob)-9], "long": append(blob, 0)} {
		path := filepath.Join(dir, name+".mdt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMDTFile(path); !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "header implies") {
			t.Fatalf("%s: err = %v, want a size mismatch", name, err)
		}
	}
}
