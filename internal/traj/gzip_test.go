package traj

import (
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"

	"mdtask/internal/linalg"
)

// writeMDTGZFile writes the trajectory as gzip-compressed MDT, an
// input format FileRef and OpenSource read.
func writeMDTGZFile(path string, t *Trajectory, prec int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	mw, err := NewMDTWriter(zw, t.Name, t.NAtoms, len(t.Frames), prec)
	if err != nil {
		f.Close()
		return err
	}
	for _, fr := range t.Frames {
		if err := mw.WriteFrame(fr); err != nil {
			f.Close()
			return err
		}
	}
	if err := mw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readMDTGZ loads a .mdt.gz trajectory through FileRef, the path every
// job input takes.
func readMDTGZ(path string) (*Trajectory, error) {
	r, err := FileRef(path)
	if err != nil {
		return nil, err
	}
	return r.Load()
}

func TestMDTGZRoundTrip(t *testing.T) {
	tr := randTraj(t, 21, 50, 10)
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.mdt")
	zipped := filepath.Join(dir, "t.mdt.gz")
	if err := WriteMDTFile(plain, tr, 8); err != nil {
		t.Fatal(err)
	}
	if err := writeMDTGZFile(zipped, tr, 8); err != nil {
		t.Fatal(err)
	}
	got, err := readMDTGZ(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if !trajEqual(tr, got, 0) {
		t.Fatal("gz round trip mismatch")
	}
	// Random coordinates barely compress; the format must at least not
	// explode and the file must be a valid gzip stream.
	pi, _ := os.Stat(plain)
	zi, _ := os.Stat(zipped)
	if zi.Size() > pi.Size()*2 {
		t.Errorf("gz size %d vs plain %d", zi.Size(), pi.Size())
	}
}

func TestMDTGZCompressesStructuredData(t *testing.T) {
	// A lattice-like trajectory (many repeated mantissa patterns)
	// compresses well.
	tr := New("lattice", 1000)
	coords := make([]linalg.Vec3, 1000)
	for i := range coords {
		coords[i] = linalg.Vec3{float64(i % 10), float64(i / 10 % 10), float64(i / 100)}
	}
	for f := 0; f < 5; f++ {
		if err := tr.AppendFrame(Frame{Time: float64(f), Coords: coords}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.mdt")
	zipped := filepath.Join(dir, "t.mdt.gz")
	if err := WriteMDTFile(plain, tr, 8); err != nil {
		t.Fatal(err)
	}
	if err := writeMDTGZFile(zipped, tr, 8); err != nil {
		t.Fatal(err)
	}
	pi, _ := os.Stat(plain)
	zi, _ := os.Stat(zipped)
	if zi.Size() >= pi.Size()/2 {
		t.Errorf("structured data should compress >2x: %d vs %d", zi.Size(), pi.Size())
	}
	got, err := readMDTGZ(zipped)
	if err != nil || !trajEqual(tr, got, 0) {
		t.Fatal("structured gz round trip failed")
	}
}

func TestMDTGZRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.mdt.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readMDTGZ(path); err == nil {
		t.Fatal("garbage accepted")
	}
}
