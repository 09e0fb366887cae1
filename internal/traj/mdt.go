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
// The frame payload streams, so readers can process trajectories larger
// than memory one frame at a time.

var mdtMagic = [4]byte{'M', 'D', 'T', '1'}

// Errors returned by the MDT reader.
var (
	ErrBadMagic     = errors.New("traj: not an MDT file (bad magic)")
	ErrBadPrecision = errors.New("traj: unsupported MDT precision")
	ErrChecksum     = errors.New("traj: MDT checksum mismatch")
	ErrTruncated    = errors.New("traj: MDT file truncated")
)

// MDTWriter streams a trajectory to an MDT file.
type MDTWriter struct {
	w       *bufio.Writer
	crc     uint32
	prec    int
	nAtoms  int
	written uint32
	buf     []byte
}

// NewMDTWriter writes the MDT header and returns a writer for the frame
// payload. prec must be 4 or 8. nFrames must be the exact number of
// frames that will be written.
func NewMDTWriter(w io.Writer, name string, nAtoms, nFrames, prec int) (*MDTWriter, error) {
	if prec != 4 && prec != 8 {
		return nil, fmt.Errorf("%w: %d", ErrBadPrecision, prec)
	}
	if len(name) > math.MaxUint16 {
		return nil, fmt.Errorf("traj: trajectory name too long (%d bytes)", len(name))
	}
	bw := bufio.NewWriter(w)
	mw := &MDTWriter{w: bw, prec: prec, nAtoms: nAtoms}
	if _, err := bw.Write(mdtMagic[:]); err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, 16+len(name))
	hdr = append(hdr, byte(prec))
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nAtoms))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(nFrames))
	mw.crc = crc32.Update(mw.crc, crc32.IEEETable, hdr)
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	return mw, nil
}

// WriteFrame appends one frame to the payload.
func (mw *MDTWriter) WriteFrame(f Frame) error {
	if len(f.Coords) != mw.nAtoms {
		return fmt.Errorf("%w: got %d coords, want %d", ErrShapeMismatch, len(f.Coords), mw.nAtoms)
	}
	need := 8 + len(f.Coords)*3*mw.prec
	if cap(mw.buf) < need {
		mw.buf = make([]byte, 0, need)
	}
	b := mw.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Time))
	for _, p := range f.Coords {
		for k := 0; k < 3; k++ {
			if mw.prec == 4 {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(p[k])))
			} else {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p[k]))
			}
		}
	}
	mw.buf = b
	mw.crc = crc32.Update(mw.crc, crc32.IEEETable, b)
	if _, err := mw.w.Write(b); err != nil {
		return err
	}
	mw.written++
	return nil
}

// Close writes the trailing checksum and flushes. It does not close the
// underlying writer.
func (mw *MDTWriter) Close() error {
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], mw.crc)
	if _, err := mw.w.Write(tail[:]); err != nil {
		return err
	}
	return mw.w.Flush()
}

// MDTReader streams frames from an MDT file.
type MDTReader struct {
	r       *bufio.Reader
	crc     uint32
	prec    int
	name    string
	nAtoms  int
	nFrames int
	read    int
	// headerLen is the byte length of everything before the first
	// frame (magic + fixed fields + name).
	headerLen int
	// skipCRC disables trailing-checksum verification after a seek has
	// bypassed part of the payload (the accumulator no longer covers
	// the whole stream).
	skipCRC bool
	buf     []byte
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
	mr := &MDTReader{r: br}
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

// Name returns the trajectory name stored in the header.
func (mr *MDTReader) Name() string { return mr.name }

// NAtoms returns the per-frame atom count.
func (mr *MDTReader) NAtoms() int { return mr.nAtoms }

// NFrames returns the number of frames in the file.
func (mr *MDTReader) NFrames() int { return mr.nFrames }

// mdtChunk bounds how many payload bytes are buffered at a time while
// decoding or skipping a frame. Header fields are attacker-controlled:
// a claimed frame of 2³² atoms must not allocate its whole payload up
// front — chunked reads make a truncated hostile file fail after the
// bytes actually present, with memory bounded by the chunk size plus
// the coordinates genuinely decoded.
const mdtChunk = 1 << 16

// ReadFrame reads the next frame. After the final frame it verifies the
// trailing checksum and returns io.EOF on the following call.
func (mr *MDTReader) ReadFrame() (Frame, error) {
	if mr.read >= mr.nFrames {
		var tail [4]byte
		if _, err := io.ReadFull(mr.r, tail[:]); err != nil {
			return Frame{}, fmt.Errorf("%w: missing checksum: %v", ErrTruncated, err)
		}
		if !mr.skipCRC && binary.LittleEndian.Uint32(tail[:]) != mr.crc {
			return Frame{}, ErrChecksum
		}
		return Frame{}, io.EOF
	}
	var timeBuf [8]byte
	if _, err := io.ReadFull(mr.r, timeBuf[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: frame %d: %v", ErrTruncated, mr.read, err)
	}
	mr.crc = crc32.Update(mr.crc, crc32.IEEETable, timeBuf[:])
	f := Frame{
		Time:   math.Float64frombits(binary.LittleEndian.Uint64(timeBuf[:])),
		Coords: make([]linalg.Vec3, 0, min(mr.nAtoms, mdtChunk/24)),
	}
	// Decode the coordinate payload in bounded chunks, each a whole
	// number of components.
	compSize := mr.prec
	perChunk := (mdtChunk / compSize) * compSize
	if cap(mr.buf) < perChunk {
		mr.buf = make([]byte, perChunk)
	}
	remaining := mr.nAtoms * 3 * compSize
	var comp [3]float64
	ci := 0
	for remaining > 0 {
		n := remaining
		if n > perChunk {
			n = perChunk
		}
		b := mr.buf[:n]
		if _, err := io.ReadFull(mr.r, b); err != nil {
			return Frame{}, fmt.Errorf("%w: frame %d: %v", ErrTruncated, mr.read, err)
		}
		mr.crc = crc32.Update(mr.crc, crc32.IEEETable, b)
		for off := 0; off < n; off += compSize {
			if mr.prec == 4 {
				comp[ci] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:])))
			} else {
				comp[ci] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			}
			if comp[ci]-comp[ci] != 0 { // NaN or ±Inf
				return Frame{}, nonFiniteError(mr.read, len(f.Coords))
			}
			ci++
			if ci == 3 {
				f.Coords = append(f.Coords, linalg.Vec3{comp[0], comp[1], comp[2]})
				ci = 0
			}
		}
		remaining -= n
	}
	mr.read++
	return f, nil
}

// decodeMDTFrames decodes the raw payload of whole MDT frames (each an
// 8-byte time then nAtoms·3 components of prec bytes) straight into
// packed rows, len(rows)/(nAtoms·3) frames of them. frame0 is the
// trajectory index of the first frame, for error reporting.
func decodeMDTFrames(raw []byte, prec, nAtoms, frame0 int, rows []float64) error {
	w3 := nAtoms * 3
	if w3 == 0 {
		return nil
	}
	fb := 8 + w3*prec
	for i := 0; i*w3 < len(rows); i++ {
		row := rows[i*w3 : (i+1)*w3]
		b := raw[i*fb+8 : (i+1)*fb]
		if prec == 4 {
			const expMask = 0x7f800000
			for k := range row {
				u := binary.LittleEndian.Uint32(b[4*k:])
				if u&expMask == expMask {
					return nonFiniteError(frame0+i, k/3)
				}
				row[k] = float64(math.Float32frombits(u))
			}
		} else {
			const expMask = 0x7ff0000000000000
			for k := range row {
				u := binary.LittleEndian.Uint64(b[8*k:])
				if u&expMask == expMask {
					return nonFiniteError(frame0+i, k/3)
				}
				row[k] = math.Float64frombits(u)
			}
		}
	}
	return nil
}

// SkipFrames reads and discards the next n frames (bounded memory, CRC
// still folded in so a subsequent full read to EOF verifies). It stops
// early without error if fewer than n frames remain.
func (mr *MDTReader) SkipFrames(n int) error {
	frameBytes := 8 + mr.nAtoms*3*mr.prec
	if cap(mr.buf) < mdtChunk {
		mr.buf = make([]byte, mdtChunk)
	}
	for ; n > 0 && mr.read < mr.nFrames; n-- {
		remaining := frameBytes
		for remaining > 0 {
			c := remaining
			if c > mdtChunk {
				c = mdtChunk
			}
			b := mr.buf[:c]
			if _, err := io.ReadFull(mr.r, b); err != nil {
				return fmt.Errorf("%w: frame %d: %v", ErrTruncated, mr.read, err)
			}
			mr.crc = crc32.Update(mr.crc, crc32.IEEETable, b)
			remaining -= c
		}
		mr.read++
	}
	return nil
}

// ReadAll reads all remaining frames and verifies the checksum.
func (mr *MDTReader) ReadAll() (*Trajectory, error) {
	t := New(mr.name, mr.nAtoms)
	for {
		f, err := mr.ReadFrame()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Frames = append(t.Frames, f)
	}
}

// WriteMDTFile writes the whole trajectory to path with the given
// coordinate precision (4 or 8 bytes).
func WriteMDTFile(path string, t *Trajectory, prec int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	mw, err := NewMDTWriter(f, t.Name, t.NAtoms, len(t.Frames), prec)
	if err != nil {
		f.Close()
		return err
	}
	for _, fr := range t.Frames {
		if err := mw.WriteFrame(fr); err != nil {
			f.Close()
			return err
		}
	}
	if err := mw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// EncodeMDT serializes a whole trajectory to MDT bytes with the given
// coordinate precision (4 or 8 bytes) — the in-memory counterpart of
// WriteMDTFile, used wherever trajectories cross a process boundary
// (pilot staging blobs, fleet input payloads).
func EncodeMDT(t *Trajectory, prec int) ([]byte, error) {
	var buf sliceWriter
	w, err := NewMDTWriter(&buf, t.Name, t.NAtoms, len(t.Frames), prec)
	if err != nil {
		return nil, err
	}
	for _, f := range t.Frames {
		if err := w.WriteFrame(f); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.b, nil
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

// readSized reads the whole trajectory of an MDT stream of size bytes
// into one Alloc backing — so Pack views it in place — decoding bounded
// chunks of frames with decodeMDTFrames, the window readers' decoder,
// and verifies the trailing checksum. The size is checked against the
// header (overflow-checked) before anything is allocated, which bounds
// every allocation by a small multiple of the bytes actually present.
// The reader must not have read any frame yet.
func (mr *MDTReader) readSized(size int64) (*Trajectory, error) {
	want, ok := mr.impliedSize()
	if !ok || size != want {
		return nil, fmt.Errorf("%w: %d bytes, header implies %d", ErrTruncated, size, want)
	}
	t := Alloc(mr.name, mr.nAtoms, mr.nFrames)
	rows := vec3Floats(t.backing)
	w3 := mr.nAtoms * 3
	fb := 8 + w3*mr.prec
	per := max(1, mdtRawBudget/fb)
	raw := make([]byte, min(per, mr.nFrames)*fb) // fb alone may be hostile when nFrames is 0
	for start := 0; start < mr.nFrames; start += per {
		n := min(per, mr.nFrames-start)
		b := raw[:n*fb]
		if _, err := io.ReadFull(mr.r, b); err != nil {
			return nil, fmt.Errorf("%w: frame %d: %v", ErrTruncated, start, err)
		}
		mr.crc = crc32.Update(mr.crc, crc32.IEEETable, b)
		if err := decodeMDTFrames(b, mr.prec, mr.nAtoms, start, rows[start*w3:(start+n)*w3]); err != nil {
			return nil, err
		}
		for i := range n {
			t.Frames[start+i].Time = math.Float64frombits(binary.LittleEndian.Uint64(b[i*fb:]))
		}
	}
	mr.read = mr.nFrames
	if _, err := mr.ReadFrame(); err != io.EOF { // verifies the checksum
		return nil, err
	}
	return t, nil
}

// DecodeMDT deserializes MDT bytes back into a trajectory, verifying
// the trailing checksum. The payload length the header implies is
// validated against len(b) up front (with overflow-checked arithmetic),
// so a hostile header claiming billions of frames or atoms fails before
// any frame is decoded or any frame storage is allocated. The
// trajectory's frames share one backing (see Alloc).
func DecodeMDT(b []byte) (*Trajectory, error) {
	mr, err := NewMDTReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return mr.readSized(int64(len(b)))
}

// sliceWriter is a minimal append-based io.Writer over a byte slice.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// ReadMDTFile reads a whole trajectory from path. The file size is
// checked against the header first, as FileRef checks it, and the
// frames are decoded into one backing (see DecodeMDT).
func ReadMDTFile(path string) (*Trajectory, error) {
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
	t, err := mr.readSized(st.Size())
	if err != nil {
		return nil, fmt.Errorf("traj: %s: %w", path, err)
	}
	return t, nil
}
