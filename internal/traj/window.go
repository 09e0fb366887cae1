package traj

import (
	"fmt"
	"io"
	"math"

	"mdtask/internal/linalg"
)

// Window is one bounded chunk of a trajectory materialized for
// analysis: frames [Start, Start+Packed.NFrames) in packed form,
// complete with the per-frame centroid / radius-of-gyration side data
// the pruned Hausdorff bounds consume. Windows are the unit of
// residency of the out-of-core PSA path: a streamed trajectory
// comparison holds at most one window per side.
type Window struct {
	// Start is the index of the window's first frame in the trajectory.
	Start int
	// Packed holds the window's frames and pruning statistics. Windows
	// carry no StepDRMS chain (it stays nil): the streamed fold
	// (hausdorff.DistanceStreamed) never reads it.
	Packed *Packed
}

// NFrames returns the number of frames in the window.
func (w *Window) NFrames() int { return w.Packed.NFrames }

// CoordBytes returns the window's materialized coordinate payload in
// bytes — the unit the BytesStreamed metric accounts.
func (w *Window) CoordBytes() int64 {
	return int64(w.Packed.NFrames) * int64(w.Packed.NAtoms) * 3 * 8
}

// frameReader is the random-access backing of a WindowReader: it
// decodes frames [start, start+n) of one trajectory straight into
// packed rows (frame-major xyz triples, len(rows) = n·nAtoms·3).
// Implementations reject non-finite coordinates with ErrNonFinite.
type frameReader interface {
	readFrames(start, n int, rows []float64) error
	close()
}

// WindowReader serves the windows of one trajectory at one window size
// by random access: window k holds frames [k·size, (k+1)·size). Every
// window is decoded into the same reused slot, so the reader owns at
// most one window of frames however many it serves; a returned Window
// stays valid until the next Window or Close call.
//
// What a jump costs depends on the backing: a memory-backed ref serves
// slice views of its cached Packed (no copy), a plain .mdt file seeks
// in O(1), a window chain fetches the blob(s) holding the window, and
// forward-only sources (.gz, .xyzt, custom openers) re-open and skip
// on a backward jump. A WindowReader is not safe for concurrent use.
type WindowReader struct {
	ref  *Ref
	size int
	// sequential marks a reader that scans the trajectory front to
	// back (Ref.Windows, Ref.Digest): a plain .mdt backing then
	// verifies the payload checksum as the scan completes.
	sequential bool

	fr  frameReader
	buf []float64 // the slot: size·nAtoms·3 coordinates, allocated on first decode
	p   Packed
	win Window
}

// WindowReader returns a random-access reader over the trajectory in
// windows of at most size frames (size < 1 means one window spanning
// the whole trajectory). The source opens lazily on the first Window
// call; Close releases it.
func (r *Ref) WindowReader(size int) *WindowReader {
	if size < 1 || size > r.nFrames {
		size = r.nFrames
	}
	if size < 1 {
		size = 1 // zero-frame trajectories have no windows
	}
	return &WindowReader{ref: r, size: size}
}

// Size returns the reader's window size in frames (the last window may
// be shorter).
func (wr *WindowReader) Size() int { return wr.size }

// NumWindows returns how many windows the reader spans.
func (wr *WindowReader) NumWindows() int { return wr.ref.NumWindows(wr.size) }

// Window decodes window k into the reader's slot and returns it. The
// previous window becomes invalid.
func (wr *WindowReader) Window(k int) (*Window, error) {
	r := wr.ref
	if k < 0 || k >= wr.NumWindows() {
		return nil, fmt.Errorf("traj: %s: no window %d of %d", r.name, k, wr.NumWindows())
	}
	start := k * wr.size
	n := min(wr.size, r.nFrames-start)
	w3 := r.nAtoms * 3
	p := &wr.p
	p.NAtoms, p.NFrames = r.nAtoms, n
	p.tree.Store(nil)
	if r.mem != nil {
		full := r.mem.Packed()
		p.Coords = full.Coords[start*w3 : (start+n)*w3]
		p.Centroids = full.Centroids[start : start+n]
		p.RadGyr = full.RadGyr[start : start+n]
	} else {
		if wr.fr == nil {
			fr, err := r.openFrames(wr.sequential)
			if err != nil {
				return nil, err
			}
			wr.fr = fr
		}
		if wr.buf == nil {
			wr.buf = make([]float64, wr.size*w3)
			p.Centroids = make([]linalg.Vec3, wr.size)
			p.RadGyr = make([]float64, wr.size)
		}
		p.Coords = wr.buf[:n*w3]
		p.Centroids, p.RadGyr = p.Centroids[:n], p.RadGyr[:n]
		if err := wr.fr.readFrames(start, n, p.Coords); err != nil {
			return nil, fmt.Errorf("traj: %s: %w", r.name, err)
		}
		for i := 0; i < n; i++ {
			p.Centroids[i], p.RadGyr[i] = rowStats(p.Coords[i*w3 : (i+1)*w3])
		}
	}
	wr.win = Window{Start: start, Packed: p}
	return &wr.win, nil
}

// Close releases the reader's source and slot. The reader stays
// usable: the next Window call re-opens the source.
func (wr *WindowReader) Close() {
	if wr.fr != nil {
		wr.fr.close()
		wr.fr = nil
	}
	wr.buf = nil
	wr.p.Coords, wr.p.Centroids, wr.p.RadGyr = nil, nil, nil
}

// rowStats returns the centroid and radius of gyration of one packed
// frame row — the side data of the pruned Hausdorff bounds. PackFrames
// and the window decode share it, so a window's statistics are
// bit-identical to the packed trajectory's.
func rowStats(row []float64) (c linalg.Vec3, rg float64) {
	n := len(row) / 3
	if n == 0 {
		return c, 0
	}
	for i := 0; i+2 < len(row); i += 3 {
		c[0] += row[i]
		c[1] += row[i+1]
		c[2] += row[i+2]
	}
	c = c.Scale(1 / float64(n))
	var s float64
	for i := 0; i+2 < len(row); i += 3 {
		dx := row[i] - c[0]
		dy := row[i+1] - c[1]
		dz := row[i+2] - c[2]
		s += dx*dx + dy*dy + dz*dz
	}
	return c, math.Sqrt(s / float64(n))
}

// WindowIter walks a trajectory's windows front to back: a thin
// sequential wrapper over a WindowReader.
type WindowIter struct {
	wr   *WindowReader
	next int
}

// Windows returns an iterator over the trajectory in windows of at
// most size frames (size < 1 means one window spanning the whole
// trajectory). Each window is valid until the next Next or Close call.
// Close the iterator if it is abandoned before io.EOF.
func (r *Ref) Windows(size int) *WindowIter {
	wr := r.WindowReader(size)
	wr.sequential = true
	return &WindowIter{wr: wr}
}

// Next decodes the next window, returning io.EOF after the last one
// (at which point the source is closed; reading the last window
// validated the declared frame count).
func (it *WindowIter) Next() (*Window, error) {
	if it.next >= it.wr.NumWindows() {
		it.wr.Close()
		return nil, io.EOF
	}
	w, err := it.wr.Window(it.next)
	if err != nil {
		it.Close()
		return nil, err
	}
	it.next++
	return w, nil
}

// Close releases the iterator's source and ends the iteration; safe to
// call at any point.
func (it *WindowIter) Close() {
	it.next = it.wr.NumWindows()
	it.wr.Close()
}

// NumWindows returns how many windows of the given size the ref spans
// (0 for an empty trajectory; size < 1 counts one window).
func (r *Ref) NumWindows(size int) int {
	if r.nFrames == 0 {
		return 0
	}
	if size < 1 || size >= r.nFrames {
		return 1
	}
	return (r.nFrames + size - 1) / size
}
