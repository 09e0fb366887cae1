package traj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The frameReader backings of WindowReader (window.go): how frames
// [start, start+n) of a stream-backed Ref reach a packed window slot.

// openFrames opens the ref's random-access backing: the ref's own
// (plain .mdt file, window chain) when it has one, the forward-only
// adapter over its Opener otherwise.
func (r *Ref) openFrames(sequential bool) (frameReader, error) {
	if r.frames != nil {
		return r.frames(sequential)
	}
	return &seqFrameReader{ref: r}, nil
}

// seqFrameReader adapts a forward-only FrameSource (.gz, .xyzt, custom
// openers): forward jumps skip, backward jumps re-open the source and
// skip from the start — a window served out of order costs a re-scan
// of everything before it. Reading the final frame validates the
// declared frame count (and, for MDT payloads, the checksum).
type seqFrameReader struct {
	ref *Ref
	src FrameSource
	pos int // index of the next frame src yields
}

func (s *seqFrameReader) readFrames(start, n int, rows []float64) error {
	r := s.ref
	if s.src == nil || start < s.pos {
		s.close()
		src, err := r.open()
		if err != nil {
			return err
		}
		s.src, s.pos = src, 0
	}
	if start > s.pos {
		// A short source surfaces below as a missing frame.
		if err := skipFrames(s.src, start-s.pos); err != nil {
			return err
		}
		s.pos = start
	}
	w3 := r.nAtoms * 3
	for i := 0; i < n; i++ {
		f, err := s.src.NextFrame()
		if err == io.EOF {
			return fmt.Errorf("source yielded %d frames, ref declares %d", s.pos, r.nFrames)
		}
		if err != nil {
			return err
		}
		if len(f.Coords) != r.nAtoms {
			return fmt.Errorf("frame %d: %w (got %d, want %d)", s.pos, ErrShapeMismatch, len(f.Coords), r.nAtoms)
		}
		packRow(rows[i*w3:(i+1)*w3], f.Coords)
		s.pos++
	}
	if s.pos == r.nFrames {
		// Probe one frame past the declared count, so an over-long
		// stream is caught too.
		switch _, err := s.src.NextFrame(); {
		case err == nil:
			return fmt.Errorf("source yielded more than %d frames, ref declares %d", s.pos, r.nFrames)
		case err != io.EOF:
			return err
		}
		s.pos++ // the source is spent: any further read re-opens it
	}
	return nil
}

func (s *seqFrameReader) close() {
	if s.src != nil {
		s.src.Close()
		s.src = nil
	}
}

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
}

func openMDTFileReader(path string, r *Ref, sequential bool) (*mdtFileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	mr, err := NewMDTReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("traj: %s: %w", path, err)
	}
	if mr.nAtoms != r.nAtoms || mr.nFrames != r.nFrames {
		f.Close()
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

func (m *mdtFileReader) readFrames(start, n int, rows []float64) error {
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
		if err := decodeMDTFrames(raw, m.prec, m.nAtoms, start, rows[:c*w3]); err != nil {
			return fmt.Errorf("%s: %w", m.path, err)
		}
		if m.crcNext == start {
			m.crc = crc32.Update(m.crc, crc32.IEEETable, raw)
			m.crcNext += c
			if m.crcNext == m.nFrames {
				var tail [4]byte
				if _, err := m.f.ReadAt(tail[:], m.headerLen+int64(m.nFrames)*int64(m.frameBytes)); err != nil {
					return fmt.Errorf("%s: %w: missing checksum: %v", m.path, ErrTruncated, err)
				}
				if binary.LittleEndian.Uint32(tail[:]) != m.crc {
					return fmt.Errorf("%s: %w", m.path, ErrChecksum)
				}
			}
		} else {
			m.crcNext = -1
		}
		start, n, rows = start+c, n-c, rows[c*w3:]
	}
	return nil
}

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

func (c *chainFrameReader) readFrames(start, n int, rows []float64) error {
	r := c.ref
	w3 := r.nAtoms * 3
	for n > 0 {
		win, off := start/c.window, start%c.window
		blob, err := c.fetch(win)
		if err != nil {
			return err
		}
		mr, err := NewMDTReader(bytes.NewReader(blob))
		if err != nil {
			return fmt.Errorf("window %d: %w", win, err)
		}
		if want := min(c.window, r.nFrames-win*c.window); mr.nAtoms != r.nAtoms || mr.nFrames != want {
			return fmt.Errorf("window %d: blob holds %d atoms × %d frames, want %d × %d",
				win, mr.nAtoms, mr.nFrames, r.nAtoms, want)
		}
		size, ok := mr.impliedSize()
		if !ok || int64(len(blob)) != size {
			return fmt.Errorf("window %d: %w: blob is %d bytes, header implies %d", win, ErrTruncated, len(blob), size)
		}
		if crc32.ChecksumIEEE(blob[4:len(blob)-4]) != binary.LittleEndian.Uint32(blob[len(blob)-4:]) {
			return fmt.Errorf("window %d: %w", win, ErrChecksum)
		}
		m := min(n, mr.nFrames-off)
		fb := 8 + w3*mr.prec
		raw := blob[mr.headerLen+off*fb : mr.headerLen+(off+m)*fb]
		if err := decodeMDTFrames(raw, mr.prec, r.nAtoms, start, rows[:m*w3]); err != nil {
			return err
		}
		start, n, rows = start+m, n-m, rows[m*w3:]
	}
	return nil
}

func (c *chainFrameReader) close() {}
