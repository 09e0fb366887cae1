package traj_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"testing"

	"mdtask/internal/synth"
	"mdtask/internal/traj"
)

// A generated trajectory stays one resident copy through packing: Pack
// and the cached Packed view the generator's backing, so the packed
// coordinates are the frames' own memory.
func TestPackSynthWalkSharesFrames(t *testing.T) {
	for _, tr := range []*traj.Trajectory{synth.Walk("w", 64, 17, 1, 0), synth.PathWalk("p", 9, 5, 1, 2)} {
		p := tr.Packed()
		for i, f := range tr.Frames {
			row := p.Row(i)
			if &row[0] != &f.Coords[0][0] || &row[len(row)-1] != &f.Coords[tr.NAtoms-1][2] {
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
	for _, f := range tr.Frames {
		for _, p := range f.Coords {
			for _, v := range p {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// One content digest whatever holds the data: a contiguous MemRef (the
// generator's backing), a non-contiguous copy built frame by frame, and
// a FileRef over the same data written as float64 all hash to the
// spelled-out reference.
func TestDigestSameAcrossLayouts(t *testing.T) {
	for _, sh := range [][2]int{{0, 3}, {4, 0}, {1, 1}, {64, 17}, {3000, 9}} {
		contiguous := synth.Walk("d", sh[0], sh[1], 5, 1)
		scattered := traj.New("d", sh[0])
		for _, f := range contiguous.Frames {
			if err := scattered.AppendFrame(f.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "d.mdt")
		if err := traj.WriteMDTFile(path, contiguous, 8); err != nil {
			t.Fatal(err)
		}
		file, err := traj.FileRef(path)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceDigest(contiguous)
		for label, r := range map[string]*traj.Ref{
			"contiguous MemRef": traj.MemRef(contiguous),
			"scattered MemRef":  traj.MemRef(scattered),
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
