package traj

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"mdtask/internal/linalg"
)

// The XYZT text trajectory format: a sequence of frame blocks,
//
//	<natoms>
//	t=<time> <name>
//	<x> <y> <z>
//	... natoms coordinate lines ...
//
// in the spirit of the XYZ file family. It is intended for small files,
// debugging, and interchange; the MDT binary format is the primary one.
// Decoding is streaming frame by frame (xyztDecoder backs both
// ReadXYZT and the FrameSource returned by OpenSource), and every parse
// error reports the 1-based line it occurred on.

// xyztAllocCap bounds the coordinate capacity pre-allocated from a
// frame header's atom count. A header is attacker-controlled input: a
// claimed count of 2³¹ atoms must not allocate gigabytes before a
// single coordinate line has been seen, so allocation beyond the cap
// grows with the lines actually read.
const xyztAllocCap = 1 << 12

// WriteXYZT writes the trajectory as XYZT text.
func WriteXYZT(w io.Writer, t *Trajectory) error {
	bw := bufio.NewWriter(w)
	for _, f := range t.Frames {
		if len(f.Coords) != t.NAtoms {
			return fmt.Errorf("traj: WriteXYZT: %w", ErrShapeMismatch)
		}
		fmt.Fprintf(bw, "%d\nt=%g %s\n", t.NAtoms, f.Time, t.Name)
		for _, p := range f.Coords {
			fmt.Fprintf(bw, "%.8g %.8g %.8g\n", p[0], p[1], p[2])
		}
	}
	return bw.Flush()
}

// xyztDecoder incrementally parses XYZT frame blocks.
type xyztDecoder struct {
	sc   *bufio.Scanner
	line int
	// nAtoms is the atom count fixed by the first frame (-1 until then).
	nAtoms int
	name   string
	// frames counts the frame blocks decoded so far.
	frames int
}

func newXYZTDecoder(r io.Reader) *xyztDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &xyztDecoder{sc: sc, nAtoms: -1}
}

// next returns the next non-blank line.
func (d *xyztDecoder) next() (string, bool) {
	for d.sc.Scan() {
		d.line++
		s := strings.TrimSpace(d.sc.Text())
		if s != "" {
			return s, true
		}
	}
	return "", false
}

// errf builds a position-stamped parse error.
func (d *xyztDecoder) errf(format string, args ...interface{}) error {
	return fmt.Errorf("traj: xyzt line %d: %s", d.line, fmt.Sprintf(format, args...))
}

// readFrame parses one frame block, returning io.EOF at a clean end of
// stream.
func (d *xyztDecoder) readFrame() (Frame, error) {
	hdr, ok := d.next()
	if !ok {
		if err := d.sc.Err(); err != nil {
			return Frame{}, fmt.Errorf("traj: xyzt line %d: %w", d.line, err)
		}
		return Frame{}, io.EOF
	}
	hdrLine := d.line
	n, err := strconv.Atoi(hdr)
	if err != nil || n < 0 {
		return Frame{}, d.errf("bad atom count %q", hdr)
	}
	meta, ok := d.next()
	if !ok {
		return Frame{}, d.errf("missing frame comment line")
	}
	var tm float64
	fields := strings.Fields(meta)
	if len(fields) > 0 && strings.HasPrefix(fields[0], "t=") {
		tm, err = strconv.ParseFloat(fields[0][2:], 64)
		if err != nil {
			return Frame{}, d.errf("bad time %q", fields[0])
		}
		if d.nAtoms < 0 && len(fields) > 1 {
			d.name = strings.Join(fields[1:], " ")
		}
	}
	if d.nAtoms < 0 {
		d.nAtoms = n
	} else if n != d.nAtoms {
		return Frame{}, fmt.Errorf("traj: xyzt line %d: frame atom count %d differs from %d", hdrLine, n, d.nAtoms)
	}
	coords := make([]linalg.Vec3, 0, min(n, xyztAllocCap))
	for i := 0; i < n; i++ {
		cl, ok := d.next()
		if !ok {
			if err := d.sc.Err(); err != nil {
				return Frame{}, fmt.Errorf("traj: xyzt line %d: %w", d.line, err)
			}
			return Frame{}, d.errf("truncated frame (%d/%d atoms)", i, n)
		}
		parts := strings.Fields(cl)
		if len(parts) < 3 {
			return Frame{}, d.errf("want 3 coordinates, got %d", len(parts))
		}
		var p linalg.Vec3
		for k := 0; k < 3; k++ {
			p[k], err = strconv.ParseFloat(parts[k], 64)
			if err != nil {
				return Frame{}, d.errf("bad coordinate %q", parts[k])
			}
			if p[k]-p[k] != 0 { // NaN or ±Inf
				return Frame{}, fmt.Errorf("traj: xyzt line %d: %w", d.line, nonFiniteError(d.frames, i))
			}
		}
		coords = append(coords, p)
	}
	d.frames++
	return Frame{Time: tm, Coords: coords}, nil
}

// xyztSource adapts the streaming decoder to FrameSource. NAtoms is -1
// until the first frame fixes it (an empty stream reports 0).
type xyztSource struct {
	d       *xyztDecoder
	path    string
	closers []io.Closer
	done    bool
}

func newXYZTSource(r io.Reader, path string, closers []io.Closer) *xyztSource {
	return &xyztSource{d: newXYZTDecoder(r), path: path, closers: closers}
}

func (s *xyztSource) NextFrame() (Frame, error) {
	if s.done {
		return Frame{}, io.EOF
	}
	f, err := s.d.readFrame()
	if err == io.EOF {
		s.done = true
		return Frame{}, io.EOF
	}
	if err != nil {
		return Frame{}, fmt.Errorf("traj: %s: %w", s.path, err)
	}
	return f, nil
}

func (s *xyztSource) NAtoms() int {
	if s.d.nAtoms < 0 {
		return 0
	}
	return s.d.nAtoms
}

func (s *xyztSource) Close() error {
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
