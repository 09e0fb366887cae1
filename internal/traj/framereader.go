package traj

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// The frameReader backings of a stream-backed Ref (window.go): how
// frames [start, start+n) of a plain .mdt file or a window chain reach
// packed rows.

// mdtRawBudget bounds the raw bytes a plain-.mdt reader buffers per
// read call: windows of small frames decode from one pread, windows of
// large frames from one pread per frame.
const mdtRawBudget = 1 << 18

// mdtFileReader reads frame ranges of a plain .mdt file by offset: MDT
// frames are fixed-size, so window k is one seek away. The ref's shape
// was validated against the file size by FileRef and bounds every
// buffer here; the header is re-checked at open in case the file was
// replaced since.
type mdtFileReader struct {
	f          *os.File
	path       string
	prec       int
	nAtoms     int
	nFrames    int
	headerLen  int64
	frameBytes int
	raw        []byte
	// crcNext is the frame a front-to-back scan reads next, with crc
	// the running checksum up to it; -1 once the scan was left (or was
	// never asked for), which forfeits verification.
	crcNext int
	crc     uint32
	// sk is the sketch the digest cache recorded for the identity of
	// f when the reader opened it, if any (digestCache.sketchOf): a
	// file rewritten since it was digested, one whose digest was racy,
	// or one on a host without file identities has none.
	sk *sketch
}

func openMDTFileReader(path string, r *Ref, sequential bool) (*mdtFileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := newMDTFileReader(f, path, r, sequential)
	if err != nil {
		f.Close()
		return nil, err
	}
	m.sk = fileDigests.sketchOf(f, m.nAtoms, m.nFrames)
	return m, nil
}

// newMDTFileReader reads r's file through f, open at offset 0; it
// closes nothing, failed or not.
func newMDTFileReader(f *os.File, path string, r *Ref, sequential bool) (*mdtFileReader, error) {
	mr, err := NewMDTReader(f)
	if err != nil {
		return nil, fmt.Errorf("traj: %s: %w", path, err)
	}
	if mr.nAtoms != r.nAtoms || mr.nFrames != r.nFrames {
		return nil, fmt.Errorf("traj: %s: header now declares %d atoms × %d frames, ref was built over %d × %d",
			path, mr.nAtoms, mr.nFrames, r.nAtoms, r.nFrames)
	}
	m := &mdtFileReader{
		f: f, path: path, prec: mr.prec, nAtoms: mr.nAtoms, nFrames: mr.nFrames,
		headerLen:  int64(mr.headerLen),
		frameBytes: 8 + mr.nAtoms*3*mr.prec,
		crcNext:    -1,
	}
	if sequential {
		m.crcNext, m.crc = 0, mr.crc
	}
	return m, nil
}

func (m *mdtFileReader) readFrames(start, n int, rows, times []float64) error {
	w3 := m.nAtoms * 3
	per := max(1, mdtRawBudget/m.frameBytes)
	for n > 0 {
		c := min(n, per)
		if need := c * m.frameBytes; cap(m.raw) < need {
			m.raw = make([]byte, need)
		}
		raw := m.raw[:c*m.frameBytes]
		if _, err := m.f.ReadAt(raw, m.headerLen+int64(start)*int64(m.frameBytes)); err != nil {
			return fmt.Errorf("%s: %w: frame %d: %v", m.path, ErrTruncated, start, err)
		}
		if err := decodeMDTFrames(raw, m.prec, m.nAtoms, start, rows[:c*w3], times); err != nil {
			return fmt.Errorf("%s: %w", m.path, err)
		}
		if m.crcNext == start {
			m.crc = crc32.Update(m.crc, crc32.IEEETable, raw)
			m.crcNext += c
		} else {
			m.crcNext = -1
		}
		start, n, rows = start+c, n-c, rows[c*w3:]
		if times != nil {
			times = times[c:]
		}
	}
	if m.crcNext == m.nFrames {
		var tail [4]byte
		if _, err := m.f.ReadAt(tail[:], m.headerLen+int64(m.nFrames)*int64(m.frameBytes)); err != nil {
			return fmt.Errorf("%s: %w: missing checksum: %v", m.path, ErrTruncated, err)
		}
		if binary.LittleEndian.Uint32(tail[:]) != m.crc {
			return fmt.Errorf("%s: %w", m.path, ErrChecksum)
		}
	}
	return nil
}

func (m *mdtFileReader) stats() *sketch { return m.sk }

func (m *mdtFileReader) close() { m.f.Close() }

// chainFrameReader reads frame ranges of a trajectory shipped as
// consecutive window-sized MDT blobs (WindowChainRef): frame f lives
// in blob f/window, so a window read fetches exactly the blob(s) that
// hold it — one, when the reader's window size is the chain's.
type chainFrameReader struct {
	ref    *Ref
	window int
	fetch  func(win int) ([]byte, error)
}

func (c *chainFrameReader) readFrames(start, n int, rows, times []float64) error {
	r := c.ref
	w3 := r.nAtoms * 3
	for n > 0 {
		win, off := start/c.window, start%c.window
		blob, err := c.fetch(win)
		if err != nil {
			return err
		}
		mr, payload, err := parseMDT(blob)
		if err != nil {
			return fmt.Errorf("window %d: %w", win, err)
		}
		if want := min(c.window, r.nFrames-win*c.window); mr.nAtoms != r.nAtoms || mr.nFrames != want {
			return fmt.Errorf("window %d: blob holds %d atoms × %d frames, want %d × %d",
				win, mr.nAtoms, mr.nFrames, r.nAtoms, want)
		}
		m := min(n, mr.nFrames-off)
		fb := 8 + w3*mr.prec
		if err := decodeMDTFrames(payload[off*fb:(off+m)*fb], mr.prec, r.nAtoms, start, rows[:m*w3], times); err != nil {
			return err
		}
		start, n, rows = start+m, n-m, rows[m*w3:]
		if times != nil {
			times = times[m:]
		}
	}
	return nil
}

// stats: a window chain has no file identity, so no sketch.
func (c *chainFrameReader) stats() *sketch { return nil }

func (c *chainFrameReader) close() {}
