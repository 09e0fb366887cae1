// Package traj provides the molecular-dynamics trajectory data model and
// file format used throughout the repository. A trajectory is a time
// series of frames; each frame holds the 3-D positions of N atoms. This
// replaces the trajectory I/O layer of MDAnalysis in the paper: the
// analysis algorithms only consume "frames of N×3 coordinates", which is
// exactly what this package produces.
//
// There is one on-disk format, MDT (.mdt, mdt.go): a compact binary
// format with fixed-size frames, a checksummed payload and selectable
// float32/float64 coordinate precision. Jobs, the CLIs, trajgen and
// the pilot and fleet engines read and write nothing else.
//
// Beyond the coordinates themselves, the package provides a packed
// analysis representation (packed.go): Trajectory.Packed presents every
// frame as one contiguous []float64 and precomputes the per-frame
// centroids, radii of gyration, and consecutive-frame dRMS values that
// the pruned Hausdorff kernel's lower bounds consume, once per
// trajectory instead of once per trajectory comparison.
//
// A trajectory is its packed coordinates: Coords holds every frame back
// to back, frame-major, which is the layout Packed and the kernels
// read, however the trajectory was built — generated (synth), decoded
// (DecodeMDT), loaded (ReadMDTFile, Ref.Load) or assembled by hand. So
// Packed views Coords in place and computes only the per-frame
// statistics: a trajectory keeps one resident copy of its coordinates.
// Ref.Digest hashes that memory as it lies, with no scratch encoding on
// little-endian hosts. Mutating coordinates after the first Packed call
// is unsupported.
//
// For inputs larger than memory, frames are read a window at a time:
//
//   - Ref (ref.go) is a windowed handle to one trajectory — identity
//     and shape plus where its frames live: memory (MemRef, or
//     DigestedRef when the caller already knows the digest), a plain
//     .mdt file (FileRef, header-only until read) or a chain of
//     window-sized MDT blobs (WindowChainRef: staged pilot files, fleet
//     coordinator fetches).
//   - A stream-backed Ref reads frames through one frameReader
//     (framereader.go): raw MDT payload decoded straight into packed
//     rows, by an O(1) seek in a .mdt file or by blob index in a chain.
//     Windows, Digest, Load and EncodeMDTWindow all read through it.
//     On a little-endian host an aligned payload is read in place as
//     floats (view.go), any other byte by byte, to the same bits.
//   - A plain .mdt FileRef's Digest goes through the process's
//     file-identity cache (digestcache.go): a file hashed once is not
//     read again while its device, inode, size, mtime and ctime stand.
//     A recorded hash keeps the file's sketch, every frame's centroid
//     and radius of gyration, computed from the rows it hashed.
//   - WindowReader / Window (window.go) serve bounded frame windows by
//     random access into one slot (pooled between readers), with the
//     centroid/rg side data sliced from the file's sketch when the
//     descriptor read has its recorded identity, and computed on the
//     way in otherwise, so out-of-core consumers
//     (hausdorff.DistanceStreamed) hold at most two windows per
//     comparison. Ref.Windows is the sequential wrapper; only its
//     front-to-back scans verify a plain .mdt payload checksum.
//
// The decoders treat headers as hostile input: a claimed shape is
// checked against the bytes actually present before anything is sized
// from it (fuzzed by FuzzDecodeMDT / FuzzWindowRoundTrip), a file's
// errors name its path, and NaN / ±Inf coordinates are refused by every
// decoder (ErrNonFinite, naming the frame and atom).
package traj

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mdtask/internal/linalg"
)

// Trajectory is a named time series of frames over a fixed set of
// atoms, held as one frame-major coordinate backing.
type Trajectory struct {
	Name   string
	NAtoms int
	// Coords holds the frames back to back: frame i is
	// Coords[i*NAtoms : (i+1)*NAtoms] (FrameCoords), its atoms in order.
	Coords []linalg.Vec3
	// Times[i] is frame i's simulation time in picoseconds; its length
	// is the frame count.
	Times []float64

	// packed caches the packed representation (see packed.go), built on
	// first use by Packed().
	packed atomic.Pointer[Packed]
}

// ErrShapeMismatch is returned when a trajectory's coordinate count is
// not its atom count times its frame count.
var ErrShapeMismatch = errors.New("traj: frame size does not match trajectory atom count")

// ErrNonFinite is returned by every MDT decoder for a NaN or
// ±Inf coordinate. A non-finite value makes every comparison of the
// Hausdorff pruning bounds vacuous, so it is refused where it enters
// the program; the wrapped error names the frame and atom.
var ErrNonFinite = errors.New("traj: non-finite coordinate")

func nonFiniteError(frame, atom int) error {
	return fmt.Errorf("frame %d atom %d: %w", frame, atom, ErrNonFinite)
}

// Alloc creates a trajectory of nFrames frames of nAtoms zeroed atoms
// (all at time 0) for the caller to fill in place.
func Alloc(name string, nAtoms, nFrames int) *Trajectory {
	return &Trajectory{
		Name:   name,
		NAtoms: nAtoms,
		Coords: make([]linalg.Vec3, nAtoms*nFrames),
		Times:  make([]float64, nFrames),
	}
}

// NFrames returns the number of frames.
func (t *Trajectory) NFrames() int { return len(t.Times) }

// FrameCoords returns the coordinates of frame i (shared, not copied),
// capped at the frame's end so an append never writes into the next
// frame.
func (t *Trajectory) FrameCoords(i int) []linalg.Vec3 {
	a, b := i*t.NAtoms, (i+1)*t.NAtoms
	return t.Coords[a:b:b]
}

// Validate checks that the trajectory's shape is consistent: a
// non-negative atom count and exactly NAtoms coordinates per frame.
func (t *Trajectory) Validate() error {
	if t.NAtoms < 0 {
		return fmt.Errorf("traj: negative atom count %d", t.NAtoms)
	}
	if want := t.NAtoms * len(t.Times); len(t.Coords) != want {
		return fmt.Errorf("traj: %w: %d coords for %d frames of %d atoms",
			ErrShapeMismatch, len(t.Coords), len(t.Times), t.NAtoms)
	}
	return nil
}

// Bytes returns the in-memory coordinate payload size in bytes (8 bytes
// per float64 component), used for data-volume accounting in the
// experiment harness.
func (t *Trajectory) Bytes() int64 {
	return int64(len(t.Times)) * int64(t.NAtoms) * 3 * 8
}

// Ensemble is a set of trajectories analyzed together, e.g. by Path
// Similarity Analysis.
type Ensemble []*Trajectory
