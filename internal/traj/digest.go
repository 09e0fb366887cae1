package traj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Digest returns the hex SHA-256 of the trajectory's content — shape
// plus every coordinate's float64 bits — computed lazily and cached on
// the ref. Memory-backed and stream-backed refs over the same data
// digest identically: a stream-backed ref hashes bounded chunks of
// frames decoded by the same loop its window readers use, so digesting
// never materializes the trajectory. The digest is the
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

func (r *Ref) computeDigest() (string, error) {
	h := sha256.New()
	var buf [8]byte
	writeI := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeI(int64(r.nAtoms))
	writeI(int64(r.nFrames))
	w3 := r.nAtoms * 3
	// Frames per chunk: what fits the budget, never more than there are.
	per := max(1, min(digestChunkBytes/max(1, w3*8), r.nFrames))
	out := make([]byte, 0, per*w3*8)
	hashRow := func(row []float64) {
		for _, v := range row {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		if len(out)+w3*8 > cap(out) {
			h.Write(out)
			out = out[:0]
		}
	}
	if r.mem != nil {
		row := make([]float64, w3)
		for _, f := range r.mem.Frames {
			packRow(row, f.Coords)
			hashRow(row)
		}
	} else {
		// The same decode loop the window readers run, front to back (so
		// a plain .mdt payload is checksum-verified on the way).
		fr, err := r.openFrames(true)
		if err != nil {
			return "", err
		}
		defer fr.close()
		rows := make([]float64, per*w3)
		for start := 0; start < r.nFrames; start += per {
			n := min(per, r.nFrames-start)
			if err := fr.readFrames(start, n, rows[:n*w3]); err != nil {
				return "", fmt.Errorf("traj: %s: %w", r.name, err)
			}
			for i := 0; i < n; i++ {
				hashRow(rows[i*w3 : (i+1)*w3])
			}
		}
	}
	h.Write(out)
	return hex.EncodeToString(h.Sum(nil)), nil
}
