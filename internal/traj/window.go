package traj

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"mdtask/internal/linalg"
)

// Window is one bounded chunk of a trajectory materialized for
// analysis: frames [Start, Start+Packed.NFrames) in packed form,
// complete with the per-frame centroid / radius-of-gyration side data
// the pruned Hausdorff bounds consume. Windows are the unit of
// residency of the out-of-core PSA path: a streamed trajectory
// comparison holds a few probe frames of one side and a window of the
// other while it probes, then one window per side.
type Window struct {
	// Start is the index of the window's first frame in the trajectory.
	Start int
	// Packed holds the window's frames and pruning statistics. The
	// statistics are read-only: they may be slices of memory shared
	// with other readers (a memory-backed ref's Packed, a file's
	// recorded sketch). Windows carry no StepDRMS chain (it stays nil):
	// the streamed fold (hausdorff.DistanceStreamed) never reads it.
	Packed *Packed
}

// NFrames returns the number of frames in the window.
func (w *Window) NFrames() int { return w.Packed.NFrames }

// CoordBytes returns the window's materialized coordinate payload in
// bytes — the unit the BytesStreamed metric accounts.
func (w *Window) CoordBytes() int64 {
	return int64(w.Packed.NFrames) * int64(w.Packed.NAtoms) * 3 * 8
}

// frameReader is the random-access backing of a stream-backed Ref
// (framereader.go): it decodes frames [start, start+n) of one
// trajectory straight into packed rows (frame-major xyz triples,
// len(rows) = n·nAtoms·3) and, unless times is nil, their times into
// times. Implementations reject non-finite coordinates with
// ErrNonFinite. stats returns the statistics recorded for every frame
// of exactly the bytes the reader decodes, or nil.
type frameReader interface {
	readFrames(start, n int, rows, times []float64) error
	stats() *sketch
	close()
}

// Frames of stream-backed windows whose statistics were served from a
// recorded sketch, and computed at decode (DigestCacheStats).
var windowStatsSketched, windowStatsComputed atomic.Int64

// WindowReader serves the windows of one trajectory at one window size
// by random access: window k holds frames [k·size, (k+1)·size). Every
// window is decoded into the same slot, so the reader owns at most one
// window of frames however many it serves; a returned Window stays
// valid until the next Window or Close call. Close hands the slot to
// the next reader of a like size.
//
// What a jump costs depends on the backing: a memory-backed ref serves
// slice views of its cached Packed (no copy), a plain .mdt file seeks
// in O(1), and a window chain fetches the blob(s) holding the window.
// A plain .mdt file whose identity carries a sketch in the digest
// cache also serves the window's statistics as slices of the sketch;
// every other stream-backed window computes them from its rows.
// A WindowReader is not safe for concurrent use.
type WindowReader struct {
	ref  *Ref
	size int
	// sequential marks a reader that scans the trajectory front to
	// back (Ref.Windows, Ref.Digest): a plain .mdt backing then
	// verifies the payload checksum as the scan completes.
	sequential bool

	fr   frameReader
	slot *windowSlot // taken on first decode, returned on Close
	p    Packed
	win  Window
}

// windowSlot is the memory a stream-backed window decodes into:
// coordinates, and the statistics when no sketch serves them.
type windowSlot struct {
	coords    []float64
	centroids []linalg.Vec3
	radGyr    []float64
}

// slotPools recycles window slots between readers, one pool per
// power-of-two class of coordinate count, so that a one-frame probe
// reader and a full-window reader do not take each other's slots.
var slotPools [bits.UintSize + 1]sync.Pool

// takeSlot returns a slot of n coordinates.
func takeSlot(n int) *windowSlot {
	if s, _ := slotPools[bits.Len(uint(n))].Get().(*windowSlot); s != nil && cap(s.coords) >= n {
		s.coords = s.coords[:n]
		return s
	}
	return &windowSlot{coords: make([]float64, n)}
}

func releaseSlot(s *windowSlot) { slotPools[bits.Len(uint(cap(s.coords)))].Put(s) }

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
// previous window becomes invalid. Its statistics may be shared,
// read-only memory (a memory-backed ref's Packed, a file's sketch).
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
			fr, err := r.frames(wr.sequential)
			if err != nil {
				return nil, err
			}
			wr.fr = fr
		}
		if wr.slot == nil {
			wr.slot = takeSlot(wr.size * w3)
		}
		s := wr.slot
		p.Coords = s.coords[:n*w3]
		if err := wr.fr.readFrames(start, n, p.Coords, nil); err != nil {
			return nil, fmt.Errorf("traj: %s: %w", r.name, err)
		}
		if sk := wr.fr.stats(); sk != nil {
			p.Centroids = sk.centroids[start : start+n]
			p.RadGyr = sk.radGyr[start : start+n]
			windowStatsSketched.Add(int64(n))
		} else {
			if cap(s.radGyr) < wr.size {
				s.centroids, s.radGyr = make([]linalg.Vec3, wr.size), make([]float64, wr.size)
			}
			p.Centroids, p.RadGyr = s.centroids[:n], s.radGyr[:n]
			for i := range n {
				p.Centroids[i], p.RadGyr[i] = linalg.FrameStats(p.Coords[i*w3 : (i+1)*w3])
			}
			windowStatsComputed.Add(int64(n))
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
	if wr.slot != nil {
		releaseSlot(wr.slot)
		wr.slot = nil
	}
	wr.p.Coords, wr.p.Centroids, wr.p.RadGyr = nil, nil, nil
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
// (at which point the source is closed; reading the last window of a
// plain .mdt file verified its checksum).
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
