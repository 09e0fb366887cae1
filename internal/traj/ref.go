package traj

import (
	"fmt"
	"os"
	"sync"
)

// Ref is a windowed handle to one trajectory: its identity and shape
// plus a way to read its frames, without committing to where the
// frames live. A Ref is either memory-backed (wrapping a loaded
// *Trajectory) or stream-backed: a plain .mdt file (FileRef) or a chain
// of window-sized MDT blobs (WindowChainRef: staged pilot files, fleet
// coordinator fetches). The PSA engines consume RefEnsembles so the
// same drivers run fully in-memory or out-of-core.
type Ref struct {
	name    string
	nAtoms  int
	nFrames int
	mem     *Trajectory
	// path is a plain-.mdt FileRef's file, whose digest goes through the
	// file-identity cache; empty for every other ref.
	path string
	// frames opens the random-access backing of a stream-backed ref; a
	// sequential reader scans front to back, so a plain .mdt backing
	// verifies the payload checksum as it completes.
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

// DigestedRef wraps a loaded trajectory whose digest the caller already
// knows — a generated input named by its recipe (synth.WalkDigest) —
// so Digest returns it without a pass over the coordinates. The caller
// vouches that the digest names this content and no other.
func DigestedRef(t *Trajectory, digest string) *Ref {
	r := MemRef(t)
	r.digestOnce.Do(func() { r.digest = digest })
	return r
}

// FileRef builds a stream-backed Ref over an MDT file, learning the
// shape from the header alone. The header's claimed shape is validated
// against the file size, so a hostile header can never make downstream
// per-frame allocations unbounded. Any other content (gzip, text) fails
// with ErrBadMagic naming the path.
func FileRef(path string) (*Ref, error) {
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
	r := &Ref{name: mr.name, nAtoms: mr.nAtoms, nFrames: mr.nFrames, path: path}
	r.frames = func(sequential bool) (frameReader, error) { return openMDTFileReader(path, r, sequential) }
	return r, nil
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

// Load materializes the whole trajectory. Memory-backed refs return
// their trajectory (shared, with its cached packed representation);
// stream-backed refs decode every frame into a new trajectory's
// backing, verifying a plain .mdt payload's checksum. The backing is
// sized from the ref's declared shape, so Load is for shapes checked
// against real bytes (FileRef, shapes a client staged itself), never
// for a shape only a remote peer declared.
func (r *Ref) Load() (*Trajectory, error) {
	if r.mem != nil {
		return r.mem, nil
	}
	return r.read(0, r.nFrames)
}

// read decodes frames [start, start+n) of a stream-backed ref into a
// new trajectory.
func (r *Ref) read(start, n int) (*Trajectory, error) {
	fr, err := r.frames(start == 0 && n == r.nFrames)
	if err != nil {
		return nil, err
	}
	defer fr.close()
	t, err := allocDecoded(r.name, r.nAtoms, n, func(rows, times []float64) error {
		return fr.readFrames(start, n, rows, times)
	})
	if err != nil {
		return nil, fmt.Errorf("traj: %s: %w", r.name, err)
	}
	return t, nil
}

// EncodeMDTWindow serializes frames [start, start+count) as an MDT blob
// with the given precision, decoding only the window from a
// stream-backed ref. It is how the pilot and fleet engines ship
// windows across process boundaries. A start at or past the end yields
// an empty (zero-frame) blob.
func (r *Ref) EncodeMDTWindow(start, count, prec int) ([]byte, error) {
	if start < 0 || count < 0 {
		return nil, fmt.Errorf("traj: %s: negative window [%d,+%d)", r.name, start, count)
	}
	start = min(start, r.nFrames)
	count = min(count, r.nFrames-start)
	if r.mem != nil {
		n := r.nAtoms
		return EncodeMDT(&Trajectory{Name: r.name, NAtoms: n,
			Coords: r.mem.Coords[start*n : (start+count)*n], Times: r.mem.Times[start : start+count]}, prec)
	}
	w, err := r.read(start, count)
	if err != nil {
		return nil, err
	}
	return EncodeMDT(w, prec)
}

// WindowChainRef describes a trajectory shipped as consecutive MDT
// blobs of window frames each (the last one shorter): blob win
// (0-based) is fetched on demand via fetch, and every blob fetched is
// checked against the declared shape, its length and its checksum.
// Windowed reads decode exactly the blob(s) holding the frames asked
// for — one fetch per window when the reader's window size is the
// chain's — and Load reads the whole chain. The pilot engine uses it
// over staged sandbox files and the fleet worker over coordinator HTTP
// fetches, keeping the two engines' window-chain semantics in one
// place.
func WindowChainRef(name string, nAtoms, nFrames, window int, fetch func(win int) ([]byte, error)) (*Ref, error) {
	if window < 1 {
		return nil, fmt.Errorf("traj: window chain %q has window size %d", name, window)
	}
	if nAtoms < 0 || nFrames < 0 {
		return nil, fmt.Errorf("traj: window chain %q has negative shape (%d atoms, %d frames)", name, nAtoms, nFrames)
	}
	r := &Ref{name: name, nAtoms: nAtoms, nFrames: nFrames}
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

// Validate checks the ensemble's structural invariants: no member is
// nil or has a negative shape, a memory-backed member's coordinates
// fill its frames (Trajectory.Validate), and every member has the
// first member's atom count, since every distance compares frames atom
// by atom.
func (e RefEnsemble) Validate() error {
	for i, r := range e {
		if r == nil {
			return fmt.Errorf("traj: ref ensemble member %d is nil", i)
		}
		if r.nAtoms < 0 || r.nFrames < 0 {
			return fmt.Errorf("traj: ref ensemble member %d (%s) has negative shape", i, r.name)
		}
		if r.mem != nil {
			if err := r.mem.Validate(); err != nil {
				return fmt.Errorf("traj: ref ensemble member %d (%s): %w", i, r.name, err)
			}
		}
		if r.nAtoms != e[0].nAtoms {
			return fmt.Errorf("traj: ref ensemble member %d (%s) has %d atoms, member 0 (%s) has %d",
				i, r.name, r.nAtoms, e[0].name, e[0].nAtoms)
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
