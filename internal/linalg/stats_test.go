package linalg

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestFrameStatsMatchesSerial holds FrameStats to the serial mean and
// spread the statistics were once computed with: exactly for the
// centroid of integer rows, whose sums are exact in any order, and to
// 1e−12 relative otherwise, on rows of 0 to 200 atoms.
func TestFrameStatsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 24))
	for n := 0; n <= 200; n++ {
		for _, integer := range []bool{true, false} {
			row := make([]float64, 3*n)
			for k := range row {
				if integer {
					row[k] = float64(r.IntN(201) - 100)
				} else {
					row[k] = 10 + r.NormFloat64()
				}
			}
			c, rg := FrameStats(row)
			var want Vec3
			for k, v := range row {
				want[k%3] += v
			}
			if n > 0 {
				want = want.Scale(1 / float64(n))
			}
			var s float64
			for k := 0; k+2 < len(row); k += 3 {
				s += Dist2(Vec3{row[k], row[k+1], row[k+2]}, want)
			}
			wantRG := 0.0
			if n > 0 {
				wantRG = math.Sqrt(s / float64(n))
			}
			for a := range 3 {
				if integer && c[a] != want[a] || math.Abs(c[a]-want[a]) > 1e-12*math.Abs(want[a]) {
					t.Fatalf("%d atoms (integer %v): centroid %v, serial %v", n, integer, c, want)
				}
			}
			if math.Abs(rg-wantRG) > 1e-12*wantRG {
				t.Fatalf("%d atoms (integer %v): rg %v, serial %v", n, integer, rg, wantRG)
			}
		}
	}
}

// TestFrameStatsShape: an empty row has zero statistics, and a row that
// is not whole triples panics.
func TestFrameStatsShape(t *testing.T) {
	if c, rg := FrameStats(nil); c != (Vec3{}) || rg != 0 {
		t.Errorf("FrameStats(nil) = %v, %v", c, rg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FrameStats did not panic on a row of 4 floats")
		}
	}()
	FrameStats(make([]float64, 4))
}

// FuzzFrameStats holds the AVX2 statistics body, on hosts that have
// it, to the generic one bit for bit — centroid and sum of squares — and
// FrameStats to what the generic body's sums give, on rows of 0 to 71
// atoms (every tail length, 0 to 7 atoms past the last whole round of
// eight) with NaN, ±Inf, subnormal, huge and −0 coordinates planted.
func FuzzFrameStats(f *testing.F) {
	for atoms := range 18 {
		f.Add(uint64(atoms), uint8(atoms), []byte{})
	}
	f.Add(uint64(1), uint8(64), []byte{3, 0, 70, 1})
	f.Fuzz(func(t *testing.T, seed uint64, atoms uint8, plant []byte) {
		n := int(atoms) % 72
		r := rand.New(rand.NewPCG(seed, 24))
		scale := math.Ldexp(1, r.IntN(40)-20)
		row := make([]float64, 3*n)
		for k := range row {
			row[k] = scale * r.NormFloat64()
		}
		// Each byte pair plants one special value: the first byte picks
		// the coordinate, the second the value.
		for i := 0; i+1 < len(plant) && n > 0; i += 2 {
			row[int(plant[i])%len(row)] = drmsSpecials[int(plant[i+1])%len(drmsSpecials)]
		}
		inv := 1 / float64(n)
		gx, gy, gz, gq := frameSumsGeneric(row, inv)
		if useAVX2 {
			x, y, z, q := frameSumsAVX2(row, inv)
			if !sameFloat(x, gx) || !sameFloat(y, gy) || !sameFloat(z, gz) || !sameFloat(q, gq) {
				t.Fatalf("AVX2 body on %d atoms = (%x, %x, %x, %x), generic = (%x, %x, %x, %x)", n,
					math.Float64bits(x), math.Float64bits(y), math.Float64bits(z), math.Float64bits(q),
					math.Float64bits(gx), math.Float64bits(gy), math.Float64bits(gz), math.Float64bits(gq))
			}
		}
		if n == 0 {
			return
		}
		c, rg := FrameStats(row)
		if !sameFloat(c[0], gx) || !sameFloat(c[1], gy) || !sameFloat(c[2], gz) || !sameFloat(rg, math.Sqrt(gq/float64(n))) {
			t.Fatalf("FrameStats on %d atoms = %v, %v; generic sums give (%v, %v, %v), %v", n, c, rg, gx, gy, gz, math.Sqrt(gq/float64(n)))
		}
	})
}

// BenchmarkFrameStats times one row's statistics on each body this host
// runs, at serve-small's 16 atoms and psa-cold's 1024, in ns/atom.
func BenchmarkFrameStats(b *testing.B) {
	type body struct {
		name string
		sums func(row []float64, inv float64) (cx, cy, cz, q float64)
	}
	bodies := []body{{"generic", frameSumsGeneric}}
	if useAVX2 {
		bodies = append(bodies, body{"avx2", frameSumsAVX2})
	}
	r := rand.New(rand.NewPCG(10, 24))
	for _, atoms := range []int{16, 1024} {
		row := make([]float64, 3*atoms)
		for k := range row {
			row[k] = r.NormFloat64()
		}
		for _, p := range bodies {
			b.Run(fmt.Sprintf("%s/%d", p.name, atoms), func(b *testing.B) {
				var sink float64
				for i := 0; i < b.N; i++ {
					_, _, _, q := p.sums(row, 1/float64(atoms))
					sink += q
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(atoms), "ns/atom")
				if math.IsNaN(sink) {
					b.Fatal("NaN sum")
				}
			})
		}
	}
}
