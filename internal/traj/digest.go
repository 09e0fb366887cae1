package traj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"mdtask/internal/linalg"
)

// Digest returns the hex SHA-256 of the trajectory's content — shape
// plus every coordinate's float64 bits, little-endian — computed lazily
// and cached on the ref. Memory-backed and stream-backed refs over the
// same data digest identically: a memory-backed ref hashes each frame's
// coordinate memory as it lies, and a stream-backed ref hashes bounded
// chunks of frames decoded by the same loop its window readers use, so
// digesting never copies or materializes the trajectory. The digest is the
// content-addressing unit of the block cache: PSA block keys are built
// from the digests of the trajectories a block reads, so identical
// trajectories hit cached blocks whatever job, engine, or matrix
// position they appear in.
func (r *Ref) Digest() (string, error) {
	r.digestOnce.Do(func() {
		r.digest, r.digestErr = r.computeDigest()
	})
	return r.digest, r.digestErr
}

// digestChunkBytes bounds the coordinate bytes Digest holds decoded at
// a time (at least one frame).
const digestChunkBytes = 1 << 16

// littleEndian reports whether the host stores a float64 as its
// little-endian encoding — the bytes Digest hashes — so coordinate
// memory can be hashed as it lies.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func (r *Ref) computeDigest() (string, error) {
	h := sha256.New()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.nAtoms))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.nFrames))
	h.Write(buf)
	hashFloats := func(v []float64) {
		if littleEndian {
			h.Write(floatBytes(v))
			return
		}
		buf = linalg.AppendFloats(buf[:0], v)
		h.Write(buf)
	}
	if r.mem != nil {
		for _, f := range r.mem.Frames {
			hashFloats(vec3Floats(f.Coords))
		}
	} else {
		// The same decode loop the window readers run, front to back (so
		// a plain .mdt payload is checksum-verified on the way).
		fr, err := r.frames(true)
		if err != nil {
			return "", err
		}
		defer fr.close()
		w3 := r.nAtoms * 3
		// Frames per chunk: what fits the budget, never more than there are.
		per := max(1, min(digestChunkBytes/max(1, w3*8), r.nFrames))
		rows := make([]float64, per*w3)
		for start := 0; start < r.nFrames; start += per {
			n := min(per, r.nFrames-start)
			if err := fr.readFrames(start, n, rows[:n*w3], nil); err != nil {
				return "", fmt.Errorf("traj: %s: %w", r.name, err)
			}
			hashFloats(rows[:n*w3])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
