package traj

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Ref is a windowed handle to one trajectory: its identity and shape
// plus a way to stream its frames, without committing to where the
// frames live. A Ref is either memory-backed (wrapping a loaded
// *Trajectory) or stream-backed (an Opener over a file, a chain of
// staged window blobs, or a remote fetch). The PSA engines consume
// RefEnsembles so the same drivers run fully in-memory or out-of-core.
type Ref struct {
	name    string
	nAtoms  int
	nFrames int
	mem     *Trajectory
	open    Opener
	// frames, when non-nil, opens a random-access backing for the ref's
	// WindowReaders (a plain .mdt file, a window chain); stream refs
	// without one are windowed through the forward-only Opener.
	frames func(sequential bool) (frameReader, error)

	// Content digest, computed lazily by Digest and cached: the block
	// cache keys every ref it sees, so the (possibly streaming) hash
	// pass must run at most once per ref.
	digestOnce sync.Once
	digest     string
	digestErr  error
}

// MemRef wraps a loaded trajectory.
func MemRef(t *Trajectory) *Ref {
	return &Ref{name: t.Name, nAtoms: t.NAtoms, nFrames: t.NFrames(), mem: t}
}

// NewStreamRef describes a stream-backed trajectory of known shape.
// The opener must yield the declared number of frames of the declared
// atom count; windowed reads validate both.
func NewStreamRef(name string, nAtoms, nFrames int, open Opener) (*Ref, error) {
	if nAtoms < 0 || nFrames < 0 {
		return nil, fmt.Errorf("traj: stream ref %q has negative shape (%d atoms, %d frames)", name, nAtoms, nFrames)
	}
	if open == nil {
		return nil, fmt.Errorf("traj: stream ref %q has no opener", name)
	}
	return &Ref{name: name, nAtoms: nAtoms, nFrames: nFrames, open: open}, nil
}

// FileRef builds a stream-backed Ref over a trajectory file, learning
// the shape from the header (MDT) or a counting scan (XYZT, gzip). For
// plain .mdt files the header's claimed frame count is validated
// against the file size, so a hostile header can never make downstream
// per-frame allocations unbounded.
func FileRef(path string) (*Ref, error) {
	kind, gzipped, err := formatOf(path)
	if err != nil {
		return nil, err
	}
	if kind == "mdt" && !gzipped {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		mr, err := NewMDTReader(f)
		if err != nil {
			return nil, fmt.Errorf("traj: %s: %w", path, err)
		}
		want, ok := mr.impliedSize()
		if !ok || st.Size() != want {
			return nil, fmt.Errorf("traj: %s: %w: file is %d bytes, header implies %d", path, ErrTruncated, st.Size(), want)
		}
		r := &Ref{name: mr.Name(), nAtoms: mr.NAtoms(), nFrames: mr.NFrames(), open: FileOpener(path)}
		r.frames = func(sequential bool) (frameReader, error) { return openMDTFileReader(path, r, sequential) }
		return r, nil
	}
	// Compressed or text formats: shape requires a full (streaming,
	// bounded-memory) scan, which also validates the payload end to end.
	src, err := OpenSource(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	name := ""
	if ms, ok := src.(*mdtSource); ok {
		name = ms.mr.Name()
	}
	frames := 0
	nAtoms := -1
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err // the source names its own path
		}
		if nAtoms < 0 {
			nAtoms = len(f.Coords)
		} else if len(f.Coords) != nAtoms {
			return nil, fmt.Errorf("traj: %s: frame %d: %w", path, frames, ErrShapeMismatch)
		}
		frames++
	}
	if nAtoms < 0 {
		nAtoms = src.NAtoms()
	}
	if xs, ok := src.(*xyztSource); ok {
		name = xs.d.name
	}
	if name == "" {
		name = refNameFromPath(path)
	}
	return &Ref{name: name, nAtoms: nAtoms, nFrames: frames, open: FileOpener(path)}, nil
}

// refNameFromPath derives a display name from a file path.
func refNameFromPath(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	for _, suf := range []string{".gz", ".mdt", ".xyzt"} {
		base = strings.TrimSuffix(base, suf)
	}
	return base
}

// Name returns the trajectory's display name.
func (r *Ref) Name() string { return r.name }

// NAtoms returns the per-frame atom count.
func (r *Ref) NAtoms() int { return r.nAtoms }

// NFrames returns the frame count.
func (r *Ref) NFrames() int { return r.nFrames }

// Bytes returns the coordinate payload size in bytes (see
// Trajectory.Bytes).
func (r *Ref) Bytes() int64 { return int64(r.nFrames) * int64(r.nAtoms) * 3 * 8 }

// Open returns a fresh FrameSource positioned at the first frame.
func (r *Ref) Open() (FrameSource, error) {
	if r.mem != nil {
		return SourceOf(r.mem), nil
	}
	return r.open()
}

// Load materializes the whole trajectory. Memory-backed refs return
// their trajectory (shared, with its cached packed representation);
// stream-backed refs read every frame.
func (r *Ref) Load() (*Trajectory, error) {
	if r.mem != nil {
		return r.mem, nil
	}
	src, err := r.Open()
	if err != nil {
		return nil, err
	}
	defer src.Close()
	t := New(r.name, r.nAtoms)
	t.Frames = make([]Frame, 0, min(r.nFrames, xyztAllocCap))
	for {
		f, err := src.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := t.AppendFrame(f); err != nil {
			return nil, fmt.Errorf("traj: %s: frame %d: %w", r.name, t.NFrames(), err)
		}
	}
	if t.NFrames() != r.nFrames {
		return nil, fmt.Errorf("traj: %s: source yielded %d frames, ref declares %d", r.name, t.NFrames(), r.nFrames)
	}
	return t, nil
}

// EncodeMDTWindow serializes frames [start, start+count) as an MDT blob
// with the given precision, streaming from the source so only the
// window is resident. It is how the pilot and fleet engines ship
// windows across process boundaries. A start at or past the end yields
// an empty (zero-frame) blob.
func (r *Ref) EncodeMDTWindow(start, count, prec int) ([]byte, error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("traj: %s: negative window [%d,+%d)", r.name, start, count)
	}
	if start > r.nFrames {
		start = r.nFrames
	}
	if start+count > r.nFrames {
		count = r.nFrames - start
	}
	if r.mem != nil {
		w := &Trajectory{Name: r.name, NAtoms: r.nAtoms, Frames: r.mem.Frames[start : start+count]}
		return EncodeMDT(w, prec)
	}
	src, err := r.Open()
	if err != nil {
		return nil, err
	}
	defer src.Close()
	if err := skipFrames(src, start); err != nil {
		return nil, fmt.Errorf("traj: %s: %w", r.name, err)
	}
	var buf sliceWriter
	mw, err := NewMDTWriter(&buf, r.name, r.nAtoms, count, prec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		f, err := src.NextFrame()
		if err != nil {
			return nil, fmt.Errorf("traj: %s: window frame %d: %w", r.name, start+i, err)
		}
		if err := mw.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// skipFrames advances a source by n frames: O(1) seek on plain MDT
// files, the MDT reader's bounded read-skip otherwise, frame-by-frame
// decode as the last resort. Keeping window serving cheap matters: the
// fleet coordinator skips to a window once per fetch, so without the
// seek a full streamed scan would cost O(frames²/window) re-decoding
// per trajectory on the serving side.
func skipFrames(src FrameSource, n int) error {
	if ms, ok := src.(*mdtSource); ok {
		return ms.skipFrames(n)
	}
	for i := 0; i < n; i++ {
		if _, err := src.NextFrame(); err != nil {
			return err
		}
	}
	return nil
}

// WindowChainRef describes a trajectory shipped as consecutive MDT
// blobs of window frames each (the last one shorter): blob win
// (0-based) is fetched on demand via fetch. Windowed reads decode
// exactly the blob(s) holding the frames asked for — one fetch per
// window when the reader's window size is the chain's — and Load
// replays the whole chain through MultiSource. The pilot engine uses
// it over staged sandbox files and the fleet worker over coordinator
// HTTP fetches, keeping the two engines' window-chain semantics in one
// place.
func WindowChainRef(name string, nAtoms, nFrames, window int, fetch func(win int) ([]byte, error)) (*Ref, error) {
	if window < 1 {
		return nil, fmt.Errorf("traj: window chain %q has window size %d", name, window)
	}
	nwin := (nFrames + window - 1) / window
	open := func() (FrameSource, error) {
		next := 0
		return MultiSource(nAtoms, func() (FrameSource, error) {
			if next >= nwin {
				return nil, nil
			}
			blob, err := fetch(next)
			next++
			if err != nil {
				return nil, err
			}
			t, err := DecodeMDT(blob)
			if err != nil {
				return nil, fmt.Errorf("traj: %s: window %d: %w", name, next-1, err)
			}
			return SourceOf(t), nil
		}), nil
	}
	r, err := NewStreamRef(name, nAtoms, nFrames, open)
	if err != nil {
		return nil, err
	}
	r.frames = func(bool) (frameReader, error) {
		return &chainFrameReader{ref: r, window: window, fetch: fetch}, nil
	}
	return r, nil
}

// RefEnsemble is an ensemble of trajectory handles — the input type of
// the streaming-capable PSA drivers.
type RefEnsemble []*Ref

// RefsOf wraps a loaded ensemble in memory-backed refs.
func RefsOf(ens Ensemble) RefEnsemble {
	out := make(RefEnsemble, len(ens))
	for i, t := range ens {
		out[i] = MemRef(t)
	}
	return out
}

// Load materializes every member (memory-backed members are shared,
// not copied).
func (e RefEnsemble) Load() (Ensemble, error) {
	out := make(Ensemble, len(e))
	for i, r := range e {
		t, err := r.Load()
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// Validate checks the ensemble's structural invariants.
func (e RefEnsemble) Validate() error {
	for i, r := range e {
		if r == nil {
			return fmt.Errorf("traj: ref ensemble member %d is nil", i)
		}
		if r.nAtoms < 0 || r.nFrames < 0 {
			return fmt.Errorf("traj: ref ensemble member %d (%s) has negative shape", i, r.name)
		}
	}
	return nil
}

// Bytes returns the total coordinate payload of the ensemble.
func (e RefEnsemble) Bytes() int64 {
	var n int64
	for _, r := range e {
		n += r.Bytes()
	}
	return n
}
