package traj

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// FrameSource is the streaming read interface of the trajectory layer:
// frames are produced one at a time in trajectory order, so a consumer
// never needs more than its own working set resident — the paper's
// iterative per-task trajectory reading, applied to every on-disk
// format. Implementations are not safe for concurrent use; open one
// source per goroutine.
type FrameSource interface {
	// NextFrame returns the next frame, or io.EOF after the last one.
	// The returned frame's coordinate slice is owned by the caller.
	NextFrame() (Frame, error)
	// NAtoms returns the per-frame atom count (known from the header or
	// the first frame).
	NAtoms() int
	// Close releases the underlying resources. Close is idempotent.
	Close() error
}

// Opener produces a fresh FrameSource positioned at the first frame.
// Windowed algorithms revisit trajectories (the inner side of a
// Hausdorff window sweep is re-read for every outer window that still
// needs it), so streaming inputs are described by how to open them,
// not by a single exhausted source.
type Opener func() (FrameSource, error)

// memSource streams an in-memory trajectory.
type memSource struct {
	t   *Trajectory
	pos int
}

// SourceOf returns a FrameSource over an in-memory trajectory. Frames
// are cloned, so the consumer may mutate them freely.
func SourceOf(t *Trajectory) FrameSource { return &memSource{t: t} }

func (s *memSource) NextFrame() (Frame, error) {
	if s.pos >= len(s.t.Frames) {
		return Frame{}, io.EOF
	}
	f := s.t.Frames[s.pos].Clone()
	s.pos++
	return f, nil
}

func (s *memSource) NAtoms() int { return s.t.NAtoms }
func (s *memSource) Close() error {
	s.pos = len(s.t.Frames)
	return nil
}

// mdtSource streams an MDT payload, closing the underlying file (if
// any) with the source.
type mdtSource struct {
	mr      *MDTReader
	path    string // for error reporting; empty for in-memory payloads
	closers []io.Closer
	// seek, when non-nil, is the raw (uncompressed) underlying reader:
	// MDT frames are fixed-size, so window reads can jump straight to a
	// frame offset instead of decoding everything before it.
	seek io.ReadSeeker
	done bool
}

// skipFrames advances by n frames. On a seekable plain-MDT source the
// jump is O(1); checksum verification is forfeited for that stream
// (window reads never reach the trailer anyway). Otherwise it falls
// back to the bounded read-and-discard skip.
func (s *mdtSource) skipFrames(n int) error {
	if n <= 0 {
		return nil
	}
	if s.seek == nil {
		return s.mr.SkipFrames(n)
	}
	mr := s.mr
	target := mr.read + n
	if target > mr.nFrames {
		target = mr.nFrames
	}
	frameBytes := 8 + int64(mr.nAtoms)*3*int64(mr.prec)
	if _, err := s.seek.Seek(int64(mr.headerLen)+int64(target)*frameBytes, io.SeekStart); err != nil {
		return err
	}
	mr.r.Reset(s.seek)
	mr.read = target
	mr.skipCRC = true
	return nil
}

func (s *mdtSource) NextFrame() (Frame, error) {
	if s.done {
		return Frame{}, io.EOF
	}
	f, err := s.mr.ReadFrame()
	if err == io.EOF {
		s.done = true
	} else if err != nil && s.path != "" {
		err = fmt.Errorf("traj: %s: %w", s.path, err)
	}
	return f, err
}

func (s *mdtSource) NAtoms() int { return s.mr.NAtoms() }

func (s *mdtSource) Close() error {
	s.done = true
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// OpenSource opens a trajectory file as a FrameSource, dispatching on
// the extension: .mdt, .mdt.gz, .xyzt and .xyzt.gz are supported. The
// decoders stream — no more than one frame is materialized at a time —
// so trajectories larger than memory can be consumed window by window.
func OpenSource(path string) (FrameSource, error) {
	kind, gzipped, err := formatOf(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var (
		r       io.Reader = f
		closers           = []io.Closer{f}
	)
	if gzipped {
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("traj: %s: %w", path, err)
		}
		r = zr
		closers = append(closers, zr)
	}
	switch kind {
	case "mdt":
		mr, err := NewMDTReader(r)
		if err != nil {
			closeAll(closers)
			return nil, fmt.Errorf("traj: %s: %w", path, err)
		}
		src := &mdtSource{mr: mr, path: path, closers: closers}
		if !gzipped {
			src.seek = f
		}
		return src, nil
	case "xyzt":
		return newXYZTSource(r, path, closers), nil
	default:
		closeAll(closers)
		return nil, fmt.Errorf("traj: %s: unsupported trajectory format", path)
	}
}

// FileOpener returns an Opener over a trajectory file.
func FileOpener(path string) Opener {
	return func() (FrameSource, error) { return OpenSource(path) }
}

// formatOf classifies a trajectory path by extension.
func formatOf(path string) (kind string, gzipped bool, err error) {
	p := strings.ToLower(path)
	if strings.HasSuffix(p, ".gz") {
		gzipped = true
		p = strings.TrimSuffix(p, ".gz")
	}
	switch {
	case strings.HasSuffix(p, ".mdt"):
		return "mdt", gzipped, nil
	case strings.HasSuffix(p, ".xyzt"):
		return "xyzt", gzipped, nil
	default:
		return "", false, fmt.Errorf("traj: %s: unsupported trajectory format (want .mdt[.gz] or .xyzt[.gz])", path)
	}
}

func closeAll(closers []io.Closer) {
	for i := len(closers) - 1; i >= 0; i-- {
		closers[i].Close()
	}
}

// MultiSource concatenates sub-sources produced on demand: next is
// called when the current sub-source is exhausted, and a (nil, nil)
// return ends the stream. The pilot and fleet engines use it to read a
// trajectory shipped as a sequence of window-sized MDT blobs without
// ever holding more than one blob's frames.
func MultiSource(nAtoms int, next func() (FrameSource, error)) FrameSource {
	return &multiSource{nAtoms: nAtoms, next: next}
}

type multiSource struct {
	nAtoms int
	next   func() (FrameSource, error)
	cur    FrameSource
	done   bool
}

func (m *multiSource) NextFrame() (Frame, error) {
	for {
		if m.done {
			return Frame{}, io.EOF
		}
		if m.cur == nil {
			src, err := m.next()
			if err != nil {
				m.done = true
				return Frame{}, err
			}
			if src == nil {
				m.done = true
				return Frame{}, io.EOF
			}
			m.cur = src
		}
		f, err := m.cur.NextFrame()
		if err == io.EOF {
			m.cur.Close()
			m.cur = nil
			continue
		}
		if err != nil {
			return Frame{}, err
		}
		if len(f.Coords) != m.nAtoms {
			return Frame{}, fmt.Errorf("%w: got %d coords, want %d", ErrShapeMismatch, len(f.Coords), m.nAtoms)
		}
		return f, nil
	}
}

func (m *multiSource) NAtoms() int { return m.nAtoms }

func (m *multiSource) Close() error {
	m.done = true
	if m.cur != nil {
		err := m.cur.Close()
		m.cur = nil
		return err
	}
	return nil
}
