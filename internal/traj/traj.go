// Package traj provides the molecular-dynamics trajectory data model and
// file formats used throughout the repository. A trajectory is a time
// series of frames; each frame holds the 3-D positions of N atoms. This
// replaces the trajectory I/O layer of MDAnalysis in the paper: the
// analysis algorithms only consume "frames of N×3 coordinates", which is
// exactly what this package produces.
//
// Two on-disk formats are provided:
//
//   - MDT (.mdt): a compact binary format with a checksummed payload and
//     selectable float32/float64 coordinate precision (format.go).
//   - XYZT (.xyzt): a human-readable text format in the spirit of XYZ
//     files, one block per frame (xyzt.go).
//
// Beyond the frame-of-Vec3 data model, the package provides a packed
// analysis representation (packed.go): Trajectory.Packed presents every
// frame as one contiguous []float64 and precomputes the per-frame
// centroids, radii of gyration, and consecutive-frame dRMS values that
// the pruned Hausdorff kernel's lower bounds consume, once per
// trajectory instead of once per trajectory comparison.
//
// A trajectory keeps one resident copy of its coordinates. Alloc lays
// every frame out as a capped slice of one backing — synth.Walk,
// synth.PathWalk, DecodeMDT and ReadMDTFile build their trajectories
// this way — and while each frame is still its slice of that backing,
// in order, Packed views the backing in place instead of copying it.
// Any other trajectory (built by AppendFrame, SelectAtoms,
// SelectFrames, ReadXYZT or a streaming Load, or one whose frames were
// reassigned or reordered) is packed into a copy. Ref.Digest hashes
// coordinate memory as it lies, with no scratch encoding on
// little-endian hosts. Mutating coordinates after the first Packed call
// is unsupported either way.
//
// For inputs larger than memory, the package also provides a streaming
// layer:
//
//   - FrameSource (source.go) decodes any supported format one frame
//     at a time; OpenSource dispatches on extension (.mdt, .mdt.gz,
//     .xyzt, .xyzt.gz) and MultiSource chains blob sequences.
//   - Ref (ref.go) is a windowed handle to one trajectory — identity
//     and shape plus an Opener — wherever its frames live: memory
//     (MemRef), a file (FileRef, header-only until read), or any
//     custom stream (NewStreamRef: staged window files, an HTTP
//     coordinator endpoint).
//   - WindowReader / Window (window.go) serve bounded frame windows by
//     random access into one reused slot — raw payload bytes decoded
//     straight into packed rows with the centroid/rg side data computed
//     on the way in (framereader.go holds the per-backing readers:
//     O(1) seek on plain .mdt, blob index on window chains, re-open on
//     a backward jump for forward-only sources) — so out-of-core
//     consumers (hausdorff.DistanceStreamed) hold at most two windows
//     per comparison. Ref.Windows is the sequential wrapper.
//
// The decoders treat headers as hostile input: claimed atom or frame
// counts never size an allocation beyond what the payload actually
// delivers (fuzzed by FuzzReadXYZT / FuzzDecodeMDT /
// FuzzWindowRoundTrip), parse errors carry the file path and 1-based
// line number where applicable, and NaN / ±Inf coordinates are refused
// by every decoder (ErrNonFinite, naming file, frame and atom).
package traj

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mdtask/internal/linalg"
)

// Frame is one snapshot of a physical system: the positions of all atoms
// at a simulation time (in picoseconds).
type Frame struct {
	Time   float64
	Coords []linalg.Vec3
}

// Clone returns a deep copy of the frame.
func (f Frame) Clone() Frame {
	c := make([]linalg.Vec3, len(f.Coords))
	copy(c, f.Coords)
	return Frame{Time: f.Time, Coords: c}
}

// Trajectory is a named time series of frames over a fixed set of atoms.
// All frames must have exactly NAtoms coordinates.
type Trajectory struct {
	Name   string
	NAtoms int
	Frames []Frame

	// backing is the one allocation Alloc sliced the frames from. Pack
	// views it in place while every frame is still its slice (see
	// inPlace); nil for a trajectory built any other way.
	backing []linalg.Vec3
	// packed caches the contiguous frame representation (see packed.go),
	// built on first use by Packed().
	packed atomic.Pointer[Packed]
}

// ErrShapeMismatch is returned when a frame's coordinate count does not
// match the trajectory's atom count.
var ErrShapeMismatch = errors.New("traj: frame size does not match trajectory atom count")

// ErrNonFinite is returned by every decoder (MDT, XYZT) for a NaN or
// ±Inf coordinate. A non-finite value makes every comparison of the
// Hausdorff pruning bounds vacuous, so it is refused where it enters
// the program; the wrapped error names the frame and atom.
var ErrNonFinite = errors.New("traj: non-finite coordinate")

func nonFiniteError(frame, atom int) error {
	return fmt.Errorf("frame %d atom %d: %w", frame, atom, ErrNonFinite)
}

// New creates an empty trajectory for nAtoms atoms.
func New(name string, nAtoms int) *Trajectory {
	return &Trajectory{Name: name, NAtoms: nAtoms}
}

// Alloc creates a trajectory of nFrames frames of nAtoms zeroed atoms
// (all at time 0) for the caller to fill in place. The frames are
// consecutive slices of one backing, each capped at its own end so an
// append to one frame never writes into the next; Packed views that
// backing instead of copying it.
func Alloc(name string, nAtoms, nFrames int) *Trajectory {
	t := New(name, nAtoms)
	t.backing = make([]linalg.Vec3, nAtoms*nFrames)
	t.Frames = make([]Frame, nFrames)
	for f := range t.Frames {
		a, b := f*nAtoms, (f+1)*nAtoms
		t.Frames[f].Coords = t.backing[a:b:b]
	}
	return t
}

// AppendFrame adds a frame, validating its shape.
func (t *Trajectory) AppendFrame(f Frame) error {
	if len(f.Coords) != t.NAtoms {
		return fmt.Errorf("%w: got %d coords, want %d", ErrShapeMismatch, len(f.Coords), t.NAtoms)
	}
	t.Frames = append(t.Frames, f)
	return nil
}

// NFrames returns the number of frames.
func (t *Trajectory) NFrames() int { return len(t.Frames) }

// FrameCoords returns the coordinate slice of frame i (shared, not copied).
func (t *Trajectory) FrameCoords(i int) []linalg.Vec3 { return t.Frames[i].Coords }

// Validate checks the structural invariants of the trajectory.
func (t *Trajectory) Validate() error {
	if t.NAtoms < 0 {
		return fmt.Errorf("traj: negative atom count %d", t.NAtoms)
	}
	for i, f := range t.Frames {
		if len(f.Coords) != t.NAtoms {
			return fmt.Errorf("traj: frame %d: %w (got %d, want %d)",
				i, ErrShapeMismatch, len(f.Coords), t.NAtoms)
		}
	}
	return nil
}

// Clone returns a deep copy of the trajectory.
func (t *Trajectory) Clone() *Trajectory {
	out := &Trajectory{Name: t.Name, NAtoms: t.NAtoms, Frames: make([]Frame, len(t.Frames))}
	for i, f := range t.Frames {
		out.Frames[i] = f.Clone()
	}
	return out
}

// Bytes returns the in-memory coordinate payload size in bytes (8 bytes
// per float64 component), used for data-volume accounting in the
// experiment harness.
func (t *Trajectory) Bytes() int64 {
	return int64(len(t.Frames)) * int64(t.NAtoms) * 3 * 8
}

// Ensemble is a set of trajectories analyzed together, e.g. by Path
// Similarity Analysis.
type Ensemble []*Trajectory

// Validate checks every member trajectory.
func (e Ensemble) Validate() error {
	for i, t := range e {
		if t == nil {
			return fmt.Errorf("traj: ensemble member %d is nil", i)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("traj: ensemble member %d (%s): %w", i, t.Name, err)
		}
	}
	return nil
}

// Bytes returns the total coordinate payload of the ensemble.
func (e Ensemble) Bytes() int64 {
	var n int64
	for _, t := range e {
		n += t.Bytes()
	}
	return n
}
