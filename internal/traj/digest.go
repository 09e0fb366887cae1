package traj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"

	"mdtask/internal/linalg"
)

// Digest returns the hex SHA-256 of the trajectory's content — shape
// plus every coordinate's float64 bits, little-endian — computed lazily
// and cached on the ref. Memory-backed and stream-backed refs over the
// same data digest identically: a memory-backed ref hashes each frame's
// coordinate memory as it lies, and a stream-backed ref hashes bounded
// chunks of frames decoded by the same loop its window readers use, so
// digesting never copies or materializes the trajectory. A plain-.mdt
// FileRef first asks the process's file-identity cache (fileDigests),
// so a file reached again — through another ref, another job or a hard
// link — is hashed once. The digest is the content-addressing unit of
// the block cache: PSA block keys are built from the digests of the
// trajectories a block reads, so identical trajectories hit cached
// blocks whatever job, engine, or matrix position they appear in.
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
	switch {
	case r.mem != nil:
		h := r.newContentHash()
		for i := range r.nFrames {
			h.floats(linalg.Floats(r.mem.FrameCoords(i)))
		}
		return h.sum(), nil
	case r.path != "":
		return fileDigests.digest(r)
	}
	fr, err := r.frames(true)
	if err != nil {
		return "", err
	}
	defer fr.close()
	return r.hashFrames(fr, nil)
}

// hashFrames digests a stream-backed ref through fr, front to back with
// the same decode loop the window readers run (so a plain .mdt
// payload's checksum is verified on the way). Unless sk is nil, it also
// fills sk with every frame's statistics, from the rows it hashes.
func (r *Ref) hashFrames(fr frameReader, sk *sketch) (string, error) {
	h := r.newContentHash()
	w3 := r.nAtoms * 3
	// Frames per chunk: what fits the budget, never more than there are.
	per := max(1, min(digestChunkBytes/max(1, w3*8), r.nFrames))
	rows := make([]float64, per*w3)
	for start := 0; start < r.nFrames; start += per {
		n := min(per, r.nFrames-start)
		if err := fr.readFrames(start, n, rows[:n*w3], nil); err != nil {
			return "", fmt.Errorf("traj: %s: %w", r.name, err)
		}
		h.floats(rows[:n*w3])
		if sk != nil {
			for i := range n {
				sk.centroids[start+i], sk.radGyr[start+i] = linalg.FrameStats(rows[i*w3 : (i+1)*w3])
			}
		}
	}
	return h.sum(), nil
}

// contentHash accumulates Digest's stream: the shape, then
// coordinates in frame order.
type contentHash struct {
	h   hash.Hash
	buf []byte
}

func (r *Ref) newContentHash() *contentHash {
	c := &contentHash{h: sha256.New()}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(r.nAtoms))
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(r.nFrames))
	c.h.Write(c.buf)
	return c
}

func (c *contentHash) floats(v []float64) {
	if littleEndian {
		c.h.Write(floatBytes(v))
		return
	}
	c.buf = linalg.AppendFloats(c.buf[:0], v)
	c.h.Write(c.buf)
}

func (c *contentHash) sum() string { return hex.EncodeToString(c.h.Sum(nil)) }
