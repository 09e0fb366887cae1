package traj

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"mdtask/internal/linalg"
)

// The float64 view of a []Vec3 (vec3Floats) is only sound while a point
// is exactly three packed float64s.
func TestVec3Layout(t *testing.T) {
	if got := unsafe.Sizeof(linalg.Vec3{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(linalg.Vec3{}) = %d, want 24", got)
	}
}

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

// samePacked fails unless two packed trajectories agree bit for bit:
// coordinates, centroids, radii of gyration and the step-dRMS chain.
func samePacked(t *testing.T, label string, got, want *Packed) {
	t.Helper()
	if got.NAtoms != want.NAtoms || got.NFrames != want.NFrames {
		t.Fatalf("%s: shape %d×%d, want %d×%d", label, got.NFrames, got.NAtoms, want.NFrames, want.NAtoms)
	}
	sameBits(t, label+" Coords", got.Coords, want.Coords)
	sameBits(t, label+" Centroids", vec3Floats(got.Centroids), vec3Floats(want.Centroids))
	sameBits(t, label+" RadGyr", got.RadGyr, want.RadGyr)
	sameBits(t, label+" StepDRMS", got.StepDRMS, want.StepDRMS)
}

// copyPacked is the reference every Pack must equal: PackFrames' copy.
func copyPacked(tr *Trajectory) *Packed {
	frames := make([][]linalg.Vec3, len(tr.Frames))
	for i, f := range tr.Frames {
		frames[i] = f.Coords
	}
	return PackFrames(frames, tr.NAtoms)
}

// allocTraj is an Alloc trajectory filled with deterministic coordinates.
func allocTraj(nAtoms, nFrames int) *Trajectory {
	tr := Alloc("a", nAtoms, nFrames)
	src := fuzzTraj(nAtoms, nFrames, 99)
	for f := range tr.Frames {
		tr.Frames[f].Time = src.Frames[f].Time
		copy(tr.Frames[f].Coords, src.Frames[f].Coords)
	}
	return tr
}

// sharesFrames reports whether any packed row is its frame's own memory.
func sharesFrames(p *Packed, tr *Trajectory) bool {
	for i, f := range tr.Frames {
		if len(f.Coords) > 0 && &p.Row(i)[0] == &f.Coords[0][0] {
			return true
		}
	}
	return false
}

// An Alloc trajectory packs in place: no coordinate is copied, and the
// statistics are bit-identical to the PackFrames copy's.
func TestPackInPlace(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {5, 1}, {3, 7}, {64, 17}} {
		tr := allocTraj(sh[0], sh[1])
		p := Pack(tr)
		if &p.Coords[0] != &tr.Frames[0].Coords[0][0] || &p.Coords[len(p.Coords)-1] != &tr.Frames[sh[1]-1].Coords[sh[0]-1][2] {
			t.Fatalf("%v: Pack copied an Alloc trajectory", sh)
		}
		samePacked(t, "in place", p, copyPacked(tr))
	}
}

// Every trajectory that is not exactly its Alloc layout takes the copy
// path, with identical results.
func TestPackCopyPaths(t *testing.T) {
	appended := func(src *Trajectory) *Trajectory {
		tr := New("appended", src.NAtoms)
		for _, f := range src.Frames {
			if err := tr.AppendFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	cases := map[string]func() *Trajectory{
		// Consecutive slices of one backing, but not one Alloc made:
		// address contiguity alone does not prove a single allocation.
		"AppendFrame of Alloc frames": func() *Trajectory { return appended(allocTraj(4, 5)) },
		"AppendFrame-built":           func() *Trajectory { return fuzzTraj(4, 5, 3) },
		"one AppendFrame frame":       func() *Trajectory { return fuzzTraj(4, 1, 3) },
		"swapped frames": func() *Trajectory {
			tr := allocTraj(4, 5)
			tr.Frames[1], tr.Frames[2] = tr.Frames[2], tr.Frames[1]
			return tr
		},
		"gap between frames": func() *Trajectory {
			tr := allocTraj(4, 5)
			tr.Frames[2] = tr.Frames[2].Clone()
			return tr
		},
		"frame dropped": func() *Trajectory {
			tr := allocTraj(4, 5)
			tr.Frames = append(tr.Frames[:2], tr.Frames[3:]...)
			return tr
		},
		"frame appended": func() *Trajectory {
			tr := allocTraj(4, 5)
			if err := tr.AppendFrame(Frame{Coords: make([]linalg.Vec3, 4)}); err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"0 atoms":  func() *Trajectory { return Alloc("z", 0, 3) },
		"0 frames": func() *Trajectory { return Alloc("e", 4, 0) },
	}
	for name, build := range cases {
		tr := build()
		p := Pack(tr)
		if sharesFrames(p, tr) {
			t.Fatalf("%s: packed rows alias the frames", name)
		}
		samePacked(t, name, p, copyPacked(tr))
	}
}

// DecodeMDT and ReadMDTFile decode the whole payload into one backing —
// which packs in place — bit-identical to the per-frame ReadAll path.
func TestMDTWholeDecodeMatchesReadAll(t *testing.T) {
	for _, prec := range []int{4, 8} {
		for _, sh := range [][2]int{{0, 3}, {3, 0}, {5, 1}, {7, 9}, {3000, 30}} {
			src := fuzzTraj(sh[0], sh[1], uint64(prec*1000+sh[0]))
			blob, err := EncodeMDT(src, prec)
			if err != nil {
				t.Fatal(err)
			}
			mr, err := NewMDTReader(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			want, err := mr.ReadAll()
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
			for label, got := range map[string]*Trajectory{"ReadMDTFile": fromFile, "DecodeMDT": fromBytes} {
				if got.Name != want.Name || got.NAtoms != want.NAtoms || len(got.Frames) != len(want.Frames) {
					t.Fatalf("prec %d %v %s: %q %d×%d, want %q %d×%d", prec, sh, label,
						got.Name, got.NFrames(), got.NAtoms, want.Name, want.NFrames(), want.NAtoms)
				}
				for f, wf := range want.Frames {
					gf := got.Frames[f]
					if math.Float64bits(gf.Time) != math.Float64bits(wf.Time) || cap(gf.Coords) != len(gf.Coords) {
						t.Fatalf("prec %d %v %s frame %d: time %v (cap %d of %d coords), want %v", prec, sh, label, f,
							gf.Time, cap(gf.Coords), len(gf.Coords), wf.Time)
					}
					sameBits(t, label, vec3Floats(gf.Coords), vec3Floats(wf.Coords))
				}
				if _, ok := got.inPlace(); ok != (sh[0] > 0 && sh[1] > 0) {
					t.Fatalf("prec %d %v %s: packs in place = %v", prec, sh, label, ok)
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
