package synth

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// The stream's oracle is math/rand/v2 itself. On amd64 and 386 the
// standard library rounds every product of NormFloat64 (amd64's
// math.Exp may fuse inside its FMA body, which the float32 wedge test
// rounds away); on arm64, ppc64 and s390x its wedge test and tail fuse
// products, so there it is not an oracle, and the comparisons skip.
func skipUnlessStdlibRounds(t testing.TB) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skipf("math/rand/v2 fuses products of NormFloat64 on %s", runtime.GOARCH)
	}
}

// tape is a math/rand/v2 source that records the outputs one draw used.
type tape struct {
	src *rand.PCG
	us  []uint64
}

func (t *tape) Uint64() uint64 {
	u := t.src.Uint64()
	t.us = append(t.us, u)
	return u
}

// zigBranches counts which ways NormFloat64 went, read off the outputs
// each draw consumed: the fast path takes one, the tail starts with
// strip 0, and a wedge test takes an output and a Float64 and, when it
// rejects, starts over.
type zigBranches struct{ fast, wedgeAccept, wedgeReject, tail int }

func (c *zigBranches) add(us []uint64) {
	for k := 0; k < len(us); k += 2 {
		j, i := int32(us[k]), us[k]>>32&0x7F
		switch {
		case absInt32(j) < kn[i]:
			c.fast++
			return
		case i == 0:
			c.tail++
			return
		case k+2 < len(us):
			c.wedgeReject++
		default:
			c.wedgeAccept++
			return
		}
	}
}

// TestStreamMatchesStdlib draws 10⁷ normals from the package's stream
// and from rand.New(rand.NewPCG(…)) over 200 (seed, stream) pairs and
// requires the same bits draw for draw, with every branch of the
// ziggurat taken, then the same Uint64 and Float64 after them.
func TestStreamMatchesStdlib(t *testing.T) {
	skipUnlessStdlibRounds(t)
	const pairs, draws = 200, 50_000
	var c zigBranches
	for k := uint64(0); k < pairs; k++ {
		seed, stream := k*0x9e3779b97f4a7c15, ^k<<7
		p := rng(seed, stream)
		tp := &tape{src: rand.NewPCG(seed, stream^0x9e3779b97f4a7c15)}
		r := rand.New(tp)
		for d := 0; d < draws; d++ {
			tp.us = tp.us[:0]
			want := r.NormFloat64()
			var got float64
			p, got = p.norm()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %d draw %d: norm %v (%#x), NormFloat64 %v (%#x), outputs %#x", k, d, got, math.Float64bits(got), want, math.Float64bits(want), tp.us)
			}
			c.add(tp.us)
		}
		var u uint64
		var f float64
		if p, u = p.next(); u != r.Uint64() {
			t.Fatalf("pair %d: Uint64 differs after %d normals", k, draws)
		}
		if p, f = p.float(); f != r.Float64() {
			t.Fatalf("pair %d: Float64 differs after %d normals", k, draws)
		}
	}
	t.Logf("branches over %d normals: %+v", pairs*draws, c)
	if c.fast == 0 || c.wedgeAccept == 0 || c.wedgeReject == 0 || c.tail == 0 {
		t.Fatalf("a ziggurat branch was never taken: %+v", c)
	}
}

// TestLogMatchesStdlib: the tail's log equals math.Log on Float64's
// grid, the multiples of 2⁻⁵³ in [0, 1), at every binade it reaches.
func TestLogMatchesStdlib(t *testing.T) {
	skipUnlessStdlibRounds(t)
	r := rand.New(rand.NewPCG(1, 2))
	check := func(x float64) {
		if got, want := log(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("log(%v) = %v, math.Log %v", x, got, want)
		}
	}
	check(0)
	check(1)
	for m := uint64(1); m < 1<<10; m++ {
		check(float64(m) / (1 << 53))
		check(float64(1<<53-m) / (1 << 53))
	}
	for n := 0; n < 200_000; n++ {
		u := r.Uint64()
		check(uniform(u))
		check(uniform(u >> (u % 53))) // a random binade
	}
}

// TestExpMatchesStdlibInWedge: the wedge test compares exp(-x²/2)
// rounded to float32 for |x| < rn, so exp must equal math.Exp after
// that rounding over [-rn²/2, 0]. math.Exp's FMA body on amd64 differs
// from the rounded pure-Go exp in some float64 results; the test logs
// how many.
func TestExpMatchesStdlibInWedge(t *testing.T) {
	skipUnlessStdlibRounds(t)
	const lo, n = -3.442619855899 * 3.442619855899 / 2, 1_000_000
	r := rand.New(rand.NewPCG(3, 4))
	differ := 0
	for k := 0; k <= 2*n; k++ {
		v := lo * float64(k) / n / 2
		if k > n {
			v = lo * r.Float64()
		}
		got, want := exp(v), math.Exp(v)
		if float32(got) != float32(want) {
			t.Fatalf("float32(exp(%v)) = %v, float32(math.Exp) %v", v, float32(got), float32(want))
		}
		if got != want {
			differ++
		}
	}
	t.Logf("exp and math.Exp differ in %d of %d float64 results, in none after rounding to float32", differ, 2*n+1)
}

// FuzzNormStream holds the stream to math/rand/v2 for an arbitrary
// (seed, stream) pair: n normals, then one Uint64 and one Float64.
func FuzzNormStream(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint16(1000))
	f.Add(uint64(1000), uint64(3), uint16(4096))
	f.Add(uint64(math.MaxUint64), uint64(0x9e3779b97f4a7c15), uint16(65535))
	f.Fuzz(func(t *testing.T, seed, stream uint64, n uint16) {
		skipUnlessStdlibRounds(t)
		p, r := pcg{seed, stream}, rand.New(rand.NewPCG(seed, stream))
		for d := 0; d < int(n); d++ {
			want := r.NormFloat64()
			var got float64
			if p, got = p.norm(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("draw %d: norm %v, NormFloat64 %v", d, got, want)
			}
		}
		var u uint64
		var x float64
		if p, u = p.next(); u != r.Uint64() {
			t.Fatal("Uint64 differs")
		}
		if _, x = p.float(); x != r.Float64() {
			t.Fatal("Float64 differs")
		}
	})
}

// TestWedgeSqueezeAgreesWithExp holds every strip's squeeze to the
// exp wedge test it stands in for. For each strip it takes |j| on an
// even grid over [kn[i], 2³¹], both ends included, and at each x two
// sets of heights: lhs for a grid of uniforms f over [0, 1), both ends
// included, the heights a draw can have, and the float32 heights from
// 8 ulps below float32(exp(−x²/2)) to 8 above, where a bound that is
// not one shows first. Every point the squeeze decides must be decided
// as exp decides it; exp must still be needed somewhere; and the
// squeeze must decide at least 90 % of the drawable points.
func TestWedgeSqueezeAgreesWithExp(t *testing.T) {
	const nj, nf, ulps = 257, 129, 8
	drawn, decided, open := 0, 0, 0
	check := func(i uint64, x float64, lhs float32) bool {
		want := lhs < float32(exp(float64(-.5*x)*x))
		accept, ok := wedges[i].decide(x, lhs)
		if ok && accept != want {
			t.Fatalf("strip %d, x = %v, lhs = %v: squeeze says %v, exp says %v", i, x, lhs, accept, want)
		}
		if !ok {
			open++
		}
		return ok
	}
	for i := uint64(1); i < 128; i++ {
		lo := int64(kn[i])
		for a := 0; a < nj; a++ {
			m := lo + (1<<31-lo)*int64(a)/(nj-1)
			j := int32(m) // |j| = 2³¹ is math.MinInt32
			if a%2 == 1 || m == 1<<31 {
				j = int32(-m)
			}
			x := float64(j) * float64(wn[i])
			for b := 0; b < nf; b++ {
				f := float64(b) / (nf - 1)
				if b == nf-1 {
					f = uniform(math.MaxUint64) // the largest Float64, 1 − 2⁻⁵³
				}
				drawn++
				if check(i, x, fn[i]+float32(float32(f)*(fn[i-1]-fn[i]))) {
					decided++
				}
			}
			rhs := float32(exp(float64(-.5*x) * x))
			for k, up, down := 0, rhs, rhs; k <= ulps; k++ {
				check(i, x, up)
				check(i, x, down)
				up, down = math.Nextafter32(up, 2), math.Nextafter32(down, 0)
			}
		}
	}
	share := float64(decided) / float64(drawn)
	t.Logf("the squeeze decided %d of %d drawable points (%.4f); exp was needed %d times", decided, drawn, share, open)
	if open == 0 {
		t.Fatal("the exp fallback was never reached")
	}
	if share < 0.9 {
		t.Fatalf("the squeeze decided %.4f of the drawable points, want ≥ 0.9", share)
	}
}
