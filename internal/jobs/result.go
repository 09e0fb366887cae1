package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"mdtask/internal/leaflet"
	"mdtask/internal/psa"
)

// Result is the output of one analysis job: exactly one of the fields
// is set, matching the job's analysis. Results stored in the cache are
// shared between jobs and must be treated as immutable. Its JSON
// encoding is written by appendResult, not by reflection: a field added
// here or in a type under it must be added there too
// (TestEncodeResultMatchesJSON fails until it is).
type Result struct {
	// Matrix is the PSA all-pairs Hausdorff distance matrix.
	Matrix *psa.Matrix `json:"matrix,omitempty"`
	// Leaflet is the Leaflet Finder assignment.
	Leaflet *leaflet.Result `json:"leaflet,omitempty"`
}

// resultBytes estimates the retained payload size of a job result, for
// the store's byte-budget accounting.
func resultBytes(r *Result) int64 {
	var n int64 = 64
	if r == nil {
		return n
	}
	if r.Matrix != nil {
		n += int64(len(r.Matrix.Data)) * 8
	}
	if r.Leaflet != nil {
		n += int64(len(r.Leaflet.Labels)) * 4
		for _, c := range r.Leaflet.Components {
			n += int64(len(c)) * 4
		}
	}
	return n
}

// appendResult appends the JSON encoding of r to dst: exactly the bytes
// json.Marshal writes for r, without reflection. Fields go in
// declaration order, matrix and leaflet are omitted when nil, a nil
// slice is null, and floats take encoding/json's format. Like
// json.Marshal it refuses a NaN or ±Inf, and then returns dst as it
// was. dst is grown once, to a bound on the encoding's length.
func appendResult(dst []byte, r *Result) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	b := slices.Grow(dst, resultSizeBound(r))
	b = append(b, '{')
	if m := r.Matrix; m != nil {
		b = append(b, `"matrix":{"N":`...)
		b = appendInt(b, int64(m.N))
		b = append(b, `,"Data":`...)
		var err error
		if b, err = appendFloats(b, m.Data); err != nil {
			return dst, err
		}
		b = append(b, '}')
	}
	if l := r.Leaflet; l != nil {
		if r.Matrix != nil {
			b = append(b, ',')
		}
		b = append(b, `"leaflet":{"Labels":`...)
		b = appendInt32s(b, l.Labels)
		b = append(b, `,"Components":`...)
		if l.Components == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, c := range l.Components {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendInt32s(b, c)
			}
			b = append(b, ']')
		}
		b = append(b, `,"Stats":{"Tasks":`...)
		b = appendInt(b, int64(l.Stats.Tasks))
		b = append(b, `,"Edges":`...)
		b = appendInt(b, l.Stats.Edges)
		b = append(b, `,"BroadcastBytes":`...)
		b = appendInt(b, l.Stats.BroadcastBytes)
		b = append(b, `,"ShuffleBytes":`...)
		b = appendInt(b, l.Stats.ShuffleBytes)
		b = append(b, "}}"...)
	}
	return append(b, '}'), nil
}

// Longest encodings of one value plus its separating comma: an int64
// (sign and 19 digits) and a float64 in encoding/json's format (sign,
// "0.00000", 17 significant digits).
const (
	maxInt64Len   = 21
	maxFloat64Len = 26
)

// resultSizeBound bounds the length of appendResult's encoding of r
// (the field names are counted generously, not exactly). Integer
// arrays are bounded by their widest value, so the bound of a Leaflet
// result, whose labels lie in [0, n), stays close to its length.
func resultSizeBound(r *Result) int {
	n := 2
	if m := r.Matrix; m != nil {
		n += 32 + maxInt64Len + len(m.Data)*maxFloat64Len
	}
	if l := r.Leaflet; l != nil {
		n += 128 + 4*maxInt64Len + int32sBound(l.Labels)
		for _, c := range l.Components {
			n += 1 + int32sBound(c)
		}
	}
	return n
}

// int32sBound bounds the length of appendInt32s's encoding of vs:
// "null" or the brackets, and for each value a comma, a sign if any
// value is negative, and the digits of the largest magnitude.
func int32sBound(vs []int32) int {
	var lo, hi int32
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	width := 1 + decimalLen(uint64(max(int64(hi), -int64(lo))))
	if lo < 0 {
		width++
	}
	return 4 + len(vs)*width
}

// appendInt32s appends vs as a JSON array, or null when vs is nil.
func appendInt32s(b []byte, vs []int32) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, int64(v))
	}
	return append(b, ']')
}

// appendInt appends v in decimal, as strconv.AppendInt(b, v, 10) does.
func appendInt(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u = -u
	}
	return appendUint(b, u)
}

// appendUint appends u in decimal, as strconv.AppendUint(b, u, 10) does,
// but writes the digits straight into b, two at a time, instead of
// formatting them in a scratch array and copying them over.
func appendUint(b []byte, u uint64) []byte {
	n := decimalLen(u)
	b = slices.Grow(b, n)[:len(b)+n]
	i := len(b)
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		b[i-1] = '0' + byte(u)
	}
	return b
}

// decimalLen returns the number of decimal digits of u, which is that
// of u|1 (and 1 for u = 0): bit length × log10(2) gives ⌊log10⌋ or one
// more, and one comparison settles which.
func decimalLen(u uint64) int {
	x := u | 1
	t := bits.Len64(x) * 1233 >> 12
	if x < pow10[t] {
		return t
	}
	return t + 1
}

// digitPairs holds "00" through "99"; pow10[k] is 10^k.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendFloats appends vs as a JSON array, or null when vs is nil. Each
// value takes encoding/json's float64 format: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 with a one-digit negative exponent
// unpadded (1e-7, not 1e-07); -0 stays -0. A NaN or ±Inf is an error,
// as in json.Marshal.
func appendFloats(b []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, v); err != nil {
			return b, fmt.Errorf("jobs: encoding result: %w", err)
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends v in encoding/json's float64 format (see
// appendFloats), or fails on a NaN or ±Inf, leaving b as it was.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, fmt.Errorf("unsupported value %s", strconv.FormatFloat(v, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// encodeBufs recycles encoding buffers: a finished job's encoding lives
// only as long as its digest takes, and a result GET's until written.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// resultDigest encodes r and returns the hex SHA-256 of its encoding,
// the digest a done job journals; the encoding itself is not kept. An
// error means r cannot be encoded, so the job cannot be served.
func resultDigest(r *Result) (string, error) {
	buf := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(buf)
	body, err := appendResult((*buf)[:0], r)
	if err != nil {
		return "", err
	}
	*buf = body
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]), nil
}
