package traj

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// encodeComponents lays out n components as prec-byte little-endian
// floats — one frame's coordinate payload.
func encodeComponents(vals []float64, prec int) []byte {
	b := make([]byte, 0, len(vals)*prec)
	for _, v := range vals {
		if prec == 4 {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
		} else {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// atOffset copies b into a fresh allocation starting off bytes past an
// 8-byte boundary.
func atOffset(b []byte, off int) []byte {
	buf := make([]byte, off+len(b))
	return buf[off:][:copy(buf[off:], b)]
}

// portableFrames is decodeMDTFrames with every frame through
// decodeCoordsLE: the reference the in-place fast path must match.
func portableFrames(raw []byte, prec, nAtoms, frame0 int, rows []float64) error {
	w3 := nAtoms * 3
	fb := 8 + w3*prec
	for i := range len(raw) / fb {
		if k := decodeCoordsLE(rows[i*w3:(i+1)*w3], raw[i*fb+8:(i+1)*fb], prec); k >= 0 {
			return nonFiniteError(frame0+i, k/3)
		}
	}
	return nil
}

// TestDecodeFastPathMatchesPortable decodes the same payloads through
// decodeMDTFrames — in place where the buffer is aligned, byte by byte
// where it is not — and through the portable loop, and requires the
// same row bits, or the same error, naming the same frame and atom, for
// ±Inf and NaNs at the first component, the last and one between.
func TestDecodeFastPathMatchesPortable(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 14))
	specials := map[string]uint64{ // prec-8 bit patterns; prec 4 narrows them
		"+Inf": math.Float64bits(math.Inf(1)), "-Inf": math.Float64bits(math.Inf(-1)),
		"NaN": math.Float64bits(math.NaN()), "-NaN": math.Float64bits(math.Copysign(math.NaN(), -1)),
	}
	for _, prec := range []int{4, 8} {
		for _, shape := range [][2]int{{1, 1}, {3, 4}, {17, 5}, {64, 3}} {
			nAtoms, nFrames := shape[0], shape[1]
			w3 := nAtoms * 3
			vals := make([]float64, nFrames*w3)
			for i := range vals {
				vals[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(80)-40))
			}
			vals[0], vals[len(vals)-1] = math.Copysign(0, -1), math.SmallestNonzeroFloat64
			if prec == 4 {
				vals[1%len(vals)] = math.MaxFloat32
			}
			var raw []byte
			for f := range nFrames {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(float64(f)/4))
				raw = append(raw, encodeComponents(vals[f*w3:(f+1)*w3], prec)...)
			}
			cases := map[string][]byte{"finite": raw}
			for name, bits := range specials {
				for _, at := range []int{0, len(vals) / 2, len(vals) - 1} {
					bad := append([]byte(nil), raw...)
					off := (at/w3)*(8+w3*prec) + 8 + (at%w3)*prec
					if prec == 4 {
						binary.LittleEndian.PutUint32(bad[off:], math.Float32bits(float32(math.Float64frombits(bits))))
					} else {
						binary.LittleEndian.PutUint64(bad[off:], bits)
					}
					cases[fmt.Sprintf("%s@%d", name, at)] = bad
				}
			}
			for name, payload := range cases {
				want := make([]float64, len(vals))
				wantErr := portableFrames(payload, prec, nAtoms, 7, want)
				for off := range 8 {
					label := fmt.Sprintf("prec %d, %d×%d, %s, offset %d", prec, nAtoms, nFrames, name, off)
					buf := atOffset(payload, off)
					if _, ok := float32sLE(buf[8:]); ok != (littleEndian && off%4 == 0) {
						t.Fatalf("%s: viewed as float32s in place: %v", label, ok)
					}
					if _, ok := float64sLE(buf[8:]); ok != (littleEndian && off%8 == 0) {
						t.Fatalf("%s: viewed as float64s in place: %v", label, ok)
					}
					got := make([]float64, len(vals))
					times := make([]float64, nFrames)
					err := decodeMDTFrames(buf, prec, nAtoms, 7, got, times)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, portable loop %v", label, err, wantErr)
					}
					if wantErr != nil {
						continue // the rows of a refused payload are not output
					}
					sameBits(t, label, got, want)
					if times[nFrames-1] != float64(nFrames-1)/4 {
						t.Fatalf("%s: times %v", label, times)
					}
				}
			}
		}
	}
}

// BenchmarkDecodeMDT reports ns per decoded coordinate component for a
// 512-atom × 16-frame payload, in place (aligned) and byte by byte
// (misaligned by one byte). Not gated: it is the measurement behind
// decodeCoords's fast path.
func BenchmarkDecodeMDT(b *testing.B) {
	const nAtoms, nFrames = 512, 16
	for _, prec := range []int{4, 8} {
		blob, err := EncodeMDT(fuzzTraj(nAtoms, nFrames, 1), prec)
		if err != nil {
			b.Fatal(err)
		}
		mr, payload, err := parseMDT(blob)
		if err != nil {
			b.Fatal(err)
		}
		rows := make([]float64, nFrames*nAtoms*3)
		for _, off := range []int{0, 1} {
			name := fmt.Sprintf("prec=%d/aligned", prec)
			if off != 0 {
				name = fmt.Sprintf("prec=%d/misaligned", prec)
			}
			raw := atOffset(payload, off)
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				for b.Loop() {
					if err := decodeMDTFrames(raw, mr.prec, nAtoms, 0, rows, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/coord")
			})
		}
	}
}
