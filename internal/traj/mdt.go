package traj

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"mdtask/internal/linalg"
)

// The MDT binary trajectory format.
//
// Layout (little endian):
//
//	magic   [4]byte  "MDT1"
//	prec    uint8    4 (float32 coords) or 8 (float64 coords)
//	nameLen uint16
//	name    [nameLen]byte
//	nAtoms  uint32
//	nFrames uint32
//	frames  nFrames × { time float64; coords nAtoms×3×prec }
//	crc     uint32   IEEE CRC-32 over everything after the magic
//
// Frames are fixed-size, so a reader decodes any window of frames by
// offset, and trajectories larger than memory are read window by window.

var mdtMagic = [4]byte{'M', 'D', 'T', '1'}

// Errors returned by the MDT reader.
var (
	ErrBadMagic     = errors.New("traj: not an MDT file (bad magic)")
	ErrBadPrecision = errors.New("traj: unsupported MDT precision")
	ErrChecksum     = errors.New("traj: MDT checksum mismatch")
	ErrTruncated    = errors.New("traj: MDT file truncated")
)

// MDTReader holds a parsed MDT header. The frame payload is decoded
// whole by DecodeMDT, or a window at a time by a Ref's frame readers
// (FileRef, WindowChainRef).
type MDTReader struct {
	crc     uint32 // checksum of the header after the magic, where the payload's continues
	prec    int
	name    string
	nAtoms  int
	nFrames int
	// headerLen is the byte length of everything before the first
	// frame (magic + fixed fields + name).
	headerLen int
}

// NewMDTReader parses the MDT header from r.
func NewMDTReader(r io.Reader) (*MDTReader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if magic != mdtMagic {
		return nil, ErrBadMagic
	}
	mr := &MDTReader{}
	fixed := make([]byte, 3)
	if _, err := io.ReadFull(br, fixed); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	mr.crc = crc32.Update(mr.crc, crc32.IEEETable, fixed)
	mr.prec = int(fixed[0])
	if mr.prec != 4 && mr.prec != 8 {
		return nil, fmt.Errorf("%w: %d", ErrBadPrecision, mr.prec)
	}
	nameLen := binary.LittleEndian.Uint16(fixed[1:3])
	rest := make([]byte, int(nameLen)+8)
	if _, err := io.ReadFull(br, rest); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	mr.crc = crc32.Update(mr.crc, crc32.IEEETable, rest)
	mr.name = string(rest[:nameLen])
	mr.nAtoms = int(binary.LittleEndian.Uint32(rest[nameLen:]))
	mr.nFrames = int(binary.LittleEndian.Uint32(rest[nameLen+4:]))
	mr.headerLen = 4 + 3 + int(nameLen) + 8
	return mr, nil
}

// decodeMDTFrames decodes the raw payload of whole MDT frames (each an
// 8-byte time then nAtoms·3 components of prec bytes), len(raw)/frame
// size of them, straight into packed rows, and their times into times
// unless it is nil. frame0 is the trajectory index of the first frame,
// for error reporting.
func decodeMDTFrames(raw []byte, prec, nAtoms, frame0 int, rows, times []float64) error {
	w3 := nAtoms * 3
	fb := 8 + w3*prec
	for i := range len(raw) / fb {
		if times != nil {
			times[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*fb:]))
		}
		if k := decodeCoords(rows[i*w3:(i+1)*w3], raw[i*fb+8:(i+1)*fb], prec); k >= 0 {
			return nonFiniteError(frame0+i, k/3)
		}
	}
	return nil
}

// decodeCoords widens one frame's prec-byte little-endian components b
// into row and returns the index of the first non-finite component, or
// -1 with every component written. Where the host can view b in place
// (float32sLE, float64sLE) the components are read as floats, at load
// speed, and finiteness is tested in the float domain (widenFinite);
// every other case runs decodeCoordsLE. On success both write the same
// bits, and both name the same index.
func decodeCoords(row []float64, b []byte, prec int) int {
	if prec == 4 {
		if v, ok := float32sLE(b); ok {
			return widenFinite(row, v)
		}
	} else if v, ok := float64sLE(b); ok {
		return widenFinite(row, v)
	}
	return decodeCoordsLE(row, b, prec)
}

// widenFinite converts v into row. A finite x has x·0 = ±0 and a
// non-finite one NaN, so four running sums of x·0 — independent, to
// keep the adds off one dependency chain — are all zero exactly when v
// is finite; only then is row whole. Otherwise the first non-finite
// index is found by a second scan (row is then written past it).
func widenFinite[F float32 | float64](row []float64, v []F) int {
	v = v[:len(row)]
	var s0, s1, s2, s3 F
	k := 0
	for ; k+4 <= len(v); k += 4 {
		x, r := v[k:k+4:k+4], row[k:k+4:k+4]
		s0 += F(x[0] * 0)
		s1 += F(x[1] * 0)
		s2 += F(x[2] * 0)
		s3 += F(x[3] * 0)
		r[0], r[1], r[2], r[3] = float64(x[0]), float64(x[1]), float64(x[2]), float64(x[3])
	}
	for ; k < len(v); k++ {
		s0 += F(v[k] * 0)
		row[k] = float64(v[k])
	}
	if s0+s1+s2+s3 == 0 {
		return -1
	}
	for k, x := range v {
		if x*0 != 0 {
			return k
		}
	}
	return -1
}

// decodeCoordsLE is decodeCoords byte by byte, on any host and at any
// alignment: a component whose exponent bits are all set is ±Inf or
// NaN.
func decodeCoordsLE(row []float64, b []byte, prec int) int {
	if prec == 4 {
		const expMask = 0x7f800000
		for k := range row {
			u := binary.LittleEndian.Uint32(b[4*k:])
			if u&expMask == expMask {
				return k
			}
			row[k] = float64(math.Float32frombits(u))
		}
		return -1
	}
	const expMask = 0x7ff0000000000000
	for k := range row {
		u := binary.LittleEndian.Uint64(b[8*k:])
		if u&expMask == expMask {
			return k
		}
		row[k] = math.Float64frombits(u)
	}
	return -1
}

// WriteMDTFile writes the whole trajectory to path with the given
// coordinate precision (4 or 8 bytes): the bytes of EncodeMDT.
func WriteMDTFile(path string, t *Trajectory, prec int) error {
	b, err := EncodeMDT(t, prec)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// EncodeMDT serializes a whole trajectory to MDT bytes with the given
// coordinate precision (4 or 8 bytes) — what WriteMDTFile writes, and
// what crosses a process boundary (pilot staging blobs, fleet input
// payloads). A trajectory whose shape does not validate is refused.
func EncodeMDT(t *Trajectory, prec int) ([]byte, error) {
	if prec != 4 && prec != 8 {
		return nil, fmt.Errorf("%w: %d", ErrBadPrecision, prec)
	}
	if len(t.Name) > math.MaxUint16 {
		return nil, fmt.Errorf("traj: trajectory name too long (%d bytes)", len(t.Name))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	nf, w3 := t.NFrames(), t.NAtoms*3
	b := make([]byte, 0, len(mdtMagic)+3+len(t.Name)+8+nf*(8+w3*prec)+4)
	b = append(b, mdtMagic[:]...)
	b = append(b, byte(prec))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.Name)))
	b = append(b, t.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(t.NAtoms))
	b = binary.LittleEndian.AppendUint32(b, uint32(nf))
	coords := linalg.Floats(t.Coords)
	for i, tm := range t.Times {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(tm))
		row := coords[i*w3 : (i+1)*w3]
		if prec == 4 {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
			}
		} else {
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[len(mdtMagic):])), nil
}

// impliedSize returns the exact byte length the header implies for the
// whole stream, or ok=false when the claimed shape cannot be expressed
// without int64 overflow (necessarily hostile: it would exceed any
// real payload by orders of magnitude).
func (mr *MDTReader) impliedSize() (int64, bool) {
	frameBytes := 8 + int64(mr.nAtoms)*3*int64(mr.prec) // ≤ 8 + 2³²·24, no overflow
	fixed := int64(mr.headerLen) + 4
	if mr.nFrames > 0 && frameBytes > (math.MaxInt64-fixed)/int64(mr.nFrames) {
		return 0, false
	}
	return fixed + int64(mr.nFrames)*frameBytes, true
}

// parseMDT checks a whole in-memory MDT stream and splits it into its
// header and frame payload. The length the header implies is checked
// against len(b) first, with overflow-checked arithmetic, so a hostile
// header claiming billions of frames or atoms is refused before
// anything is sized from it; then the trailing checksum is verified.
func parseMDT(b []byte) (*MDTReader, []byte, error) {
	mr, err := NewMDTReader(bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	size, ok := mr.impliedSize()
	if !ok || int64(len(b)) != size {
		return nil, nil, fmt.Errorf("%w: %d bytes, header implies %d", ErrTruncated, len(b), size)
	}
	if crc32.ChecksumIEEE(b[4:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, nil, ErrChecksum
	}
	return mr, b[mr.headerLen : len(b)-4], nil
}

// DecodeMDT deserializes MDT bytes back into a trajectory (see
// parseMDT for what is checked first), decoding the payload straight
// into the trajectory's coordinate backing.
func DecodeMDT(b []byte) (*Trajectory, error) {
	mr, payload, err := parseMDT(b)
	if err != nil {
		return nil, err
	}
	return allocDecoded(mr.name, mr.nAtoms, mr.nFrames, func(rows, times []float64) error {
		return decodeMDTFrames(payload, mr.prec, mr.nAtoms, 0, rows, times)
	})
}

// allocDecoded builds an n-frame trajectory whose coordinate backing,
// as packed rows, and frame times decode fills.
func allocDecoded(name string, nAtoms, n int, decode func(rows, times []float64) error) (*Trajectory, error) {
	t := Alloc(name, nAtoms, n)
	if err := decode(linalg.Floats(t.Coords), t.Times); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadMDTFile reads a whole trajectory from path: FileRef checks the
// file size against the header, and Load decodes the frames into the
// trajectory's backing, verifying the checksum.
func ReadMDTFile(path string) (*Trajectory, error) {
	r, err := FileRef(path)
	if err != nil {
		return nil, err
	}
	return r.Load()
}
