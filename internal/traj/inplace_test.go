package traj_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"mdtask/internal/linalg"
	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// Packing never copies coordinates: however a trajectory was built —
// generated, decoded, loaded or by hand — Packed().Coords is the
// trajectory's own Coords, first component to last.
func TestPackInPlace(t *testing.T) {
	walk := synth.Walk("w", 64, 17, 1, 0)
	blob, err := traj.EncodeMDT(walk, 8)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.mdt")
	if err := traj.WriteMDTFile(path, walk, 4); err != nil {
		t.Fatal(err)
	}
	file, err := traj.FileRef(path)
	if err != nil {
		t.Fatal(err)
	}
	mem := traj.MemRef(walk)
	chain, err := traj.WindowChainRef(walk.Name, walk.NAtoms, walk.NFrames(), 5, func(win int) ([]byte, error) {
		return mem.EncodeMDTWindow(win*5, 5, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(tr *traj.Trajectory, err error) *traj.Trajectory {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for label, tr := range map[string]*traj.Trajectory{
		"synth.Walk":        walk,
		"synth.PathWalk":    synth.PathWalk("p", 9, 5, 1, 2),
		"synth.Adversarial": synth.Adversarial(4, []int{3, 6}, 2, 1)[1],
		"DecodeMDT":         must(traj.DecodeMDT(blob)),
		"ReadMDTFile":       must(traj.ReadMDTFile(path)),
		"FileRef.Load":      must(file.Load()),
		"chain Load":        must(chain.Load()),
		"hand-built": {Name: "h", NAtoms: 2, Times: []float64{0, 1},
			Coords: []linalg.Vec3{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}},
	} {
		p := tr.Packed()
		last := len(tr.Coords) - 1
		if len(p.Coords) != 3*len(tr.Coords) || &p.Coords[0] != &tr.Coords[0][0] || &p.Coords[len(p.Coords)-1] != &tr.Coords[last][2] {
			t.Fatalf("%s: packed coordinates are a copy, want the trajectory's own memory", label)
		}
	}
}

// A generated trajectory stays one resident copy through packing: each
// packed row is that frame's own coordinates, not a copy of them.
func TestPackSynthWalkSharesFrames(t *testing.T) {
	for _, tr := range []*traj.Trajectory{synth.Walk("w", 64, 17, 1, 0), synth.PathWalk("p", 9, 5, 1, 2)} {
		p := tr.Packed()
		for i := range tr.NFrames() {
			row, f := p.Row(i), tr.FrameCoords(i)
			if len(row) != 3*tr.NAtoms || &row[0] != &f[0][0] || &row[len(row)-1] != &f[tr.NAtoms-1][2] {
				t.Fatalf("%s frame %d: packed row is a copy, want the frame's own memory", tr.Name, i)
			}
		}
	}
}

// referenceDigest is the content digest spelled out: shape, then every
// coordinate's float64 bits, little-endian, in frame and atom order.
func referenceDigest(tr *traj.Trajectory) string {
	h := sha256.New()
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, uint64(tr.NAtoms))
	b = binary.LittleEndian.AppendUint64(b, uint64(tr.NFrames()))
	for i := range tr.NFrames() {
		for _, p := range tr.FrameCoords(i) {
			for _, v := range p {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// One content digest whatever holds the data: a generated MemRef, a
// hand-built one over a copy of its coordinates, and a FileRef over the
// same data written as float64 all hash to the spelled-out reference.
func TestDigestSameAcrossLayouts(t *testing.T) {
	for _, sh := range [][2]int{{0, 3}, {4, 0}, {1, 1}, {64, 17}, {3000, 9}} {
		generated := synth.Walk("d", sh[0], sh[1], 5, 1)
		handBuilt := &traj.Trajectory{Name: "d", NAtoms: sh[0], Coords: slices.Clone(generated.Coords), Times: slices.Clone(generated.Times)}
		path := filepath.Join(t.TempDir(), "d.mdt")
		if err := traj.WriteMDTFile(path, generated, 8); err != nil {
			t.Fatal(err)
		}
		file, err := traj.FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceDigest(generated)
		for label, r := range map[string]*traj.Ref{
			"generated MemRef":  traj.MemRef(generated),
			"hand-built MemRef": traj.MemRef(handBuilt),
			"float64 FileRef":   file,
		} {
			got, err := r.Digest()
			if err != nil {
				t.Fatalf("%v %s: %v", sh, label, err)
			}
			if got != want {
				t.Fatalf("%v %s: digest %s, want %s", sh, label, got, want)
			}
		}
	}
}
