// Copyright 2009 and 2023 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in Go's LICENSE file.
//
// pcg's state update and output are those of Go's math/rand/v2 PCG
// (pcg.go); the ziggurat tables kn, wn and fn are copied from
// math/rand/v2/normal.go, and norm and normSlow follow its NormFloat64;
// log and exp are Go's math/log.go and math/exp.go with every product
// rounded on its own. Their constants and method come from FreeBSD's
// msun library, e_log.c and e_exp.c, which carry this notice:
//
// ====================================================
// Copyright (C) 1993 (e_log.c), 2004 (e_exp.c) by Sun Microsystems, Inc.
// All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================

package synth

import (
	"math"
	"math/bits"
)

// pcg is the generators' random stream: PCG-DXSM with 128 bits of
// state, the state update and output of math/rand/v2's PCG, and its
// Float64 and ziggurat NormFloat64. pcg{seed1, seed2} draws the same
// bits on every GOARCH, and on amd64 and 386 exactly what
// rand.New(rand.NewPCG(seed1, seed2)) draws (the standard library's
// NormFloat64 fuses products elsewhere). It is a value: each draw takes
// the state and returns the next one (p, x = p.norm()), so a generator
// loop holds the state in two registers and the inlined draw never
// goes through memory.
type pcg struct{ hi, lo uint64 }

// next advances the state and returns its DXSM output (Uint64).
func (p pcg) next() (pcg, uint64) {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	p.hi, p.lo = hi+incHi+c, lo
	hi = p.hi ^ p.hi>>32
	hi *= cheapMul
	return p, (hi ^ hi>>48) * (lo | 1)
}

// float draws a uniform float64 in [0, 1) (Float64).
func (p pcg) float() (pcg, float64) {
	p, u := p.next()
	return p, uniform(u)
}

// uniform is Float64 of the output u: one of the 2⁵³ multiples of 2⁻⁵³
// in [0, 1), uniformly.
func uniform(u uint64) float64 { return float64(u<<11>>11) / (1 << 53) }

// norm draws a standard normal by the ziggurat method (NormFloat64).
// It is too large to inline; the generators' hot loop, displace,
// inlines its two halves instead, next and zig, and calls normSlow only
// when zig misses.
func (p pcg) norm() (pcg, float64) {
	p, u := p.next()
	if x, ok := zig(u); ok {
		return p, x
	}
	return p.normSlow(u)
}

// zig is the ziggurat's fast path: the normal that the output u names
// when it falls under its strip's rectangle, which better than 99 % of
// outputs do. ok is false otherwise, and normSlow finishes the draw.
func zig(u uint64) (x float64, ok bool) {
	j, i := int32(u), u>>32&0x7F
	return float64(j) * float64(wn[i]), absInt32(j) < kn[i]
}

// normSlow finishes a normal draw whose first output u fell outside
// its strip's rectangle: the wedge test, the tail of the base strip,
// and on a rejected wedge a fresh draw from the top. Every product is
// rounded on its own and log and exp are the pure-Go ones below, so no
// fused multiply-add and no run-time choice of an assembly body picks
// the bits. The strip's squeeze (wedges) decides most wedge tests, and
// exp runs only for a point it leaves open.
//
//go:noinline
func (p pcg) normSlow(u uint64) (pcg, float64) {
	const rn = 3.442619855899
	for {
		j, i := int32(u), u>>32&0x7F
		x, _ := zig(u)
		if i == 0 {
			for {
				var a, b float64
				p, a = p.float()
				p, b = p.float()
				x = float64(-log(a) * (1.0 / rn))
				y := -log(b)
				if y+y >= float64(x*x) {
					break
				}
			}
			if j > 0 {
				return p, rn + x
			}
			return p, -rn - x
		}
		var f float64
		p, f = p.float()
		lhs := fn[i] + float32(float32(f)*(fn[i-1]-fn[i]))
		accept, decided := wedges[i].decide(x, lhs)
		if !decided {
			accept = lhs < float32(exp(float64(-.5*x)*x))
		}
		if accept {
			return p, x
		}
		p, u = p.next()
		if x, ok := zig(u); ok {
			return p, x
		}
	}
}

// wedge is one strip's squeeze: two lines in |x|, lo0 + lo1·|x| and
// hi0 + hi1·|x|, below and above float32(exp(−x²/2)) everywhere on the
// strip's wedge (the package doc has the argument).
type wedge struct{ lo0, lo1, hi0, hi1 float64 }

// decide is the wedge test lhs < float32(exp(−x²/2)) where the squeeze
// settles it: accept below the lower line, reject at or above the upper
// one. Between them decided is false, and only exp can tell.
func (w *wedge) decide(x float64, lhs float32) (accept, decided bool) {
	ax, l := math.Abs(x), float64(lhs)
	if l < w.lo0+float64(w.lo1*ax) {
		return true, true
	}
	return false, l >= w.hi0+float64(w.hi1*ax)
}

// wedges holds the squeeze of strips 1–127; strip 0's tail has no
// wedge test.
var wedges = makeWedges()

// makeWedges bounds f(x) = e^(−x²/2) over each strip's wedge, |x| in
// [a, b] with a = kn[i]·wn[i] and b = 2³¹·wn[i], the ends of what
// float64(j)·float64(wn[i]) can round to for kn[i] ≤ |j| ≤ 2³¹. Where f
// is concave (b ≤ 1) the chord lies below it and the tangent at the
// midpoint above; where it is convex (a ≥ 1) they swap; a strip across
// 1 takes the constants f(b) ≤ f ≤ f(a). Each bound is widened by
// f(a)·2⁻¹⁹.
func makeWedges() (ws [128]wedge) {
	f := func(x float64) float64 { return exp(float64(-.5*x) * x) }
	for i := 1; i < len(ws); i++ {
		a, b := float64(float64(kn[i])*float64(wn[i])), float64((1<<31)*float64(wn[i]))
		fa, fb, m := f(a), f(b), (a+b)/2
		fm := f(m)
		chord := (fb - fa) / (b - a)
		tangent := -m * fm
		w := &ws[i]
		switch {
		case b <= 1:
			w.lo0, w.lo1 = fa-float64(chord*a), chord
			w.hi0, w.hi1 = fm-float64(tangent*m), tangent
		case a >= 1:
			w.lo0, w.lo1 = fm-float64(tangent*m), tangent
			w.hi0, w.hi1 = fa-float64(chord*a), chord
		default:
			w.lo0, w.hi0 = fb, fa
		}
		margin := float64(fa * 0x1p-19)
		w.lo0 -= margin
		w.hi0 += margin
	}
	return ws
}

// absInt32 is |i| as a uint32, defined for math.MinInt32 too.
func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// log is math/log.go's pure-Go log with every product rounded. amd64's
// math.Log is an assembly body and arm64's is this code with products
// the compiler fuses; this one writes the same bits everywhere.
func log(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		Ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		L1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		L2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		L3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		L4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		L5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		L6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		L7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}

	// reduce
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	// compute
	s := f / (2 + f)
	s2 := s * s
	s4 := s2 * s2
	t1 := float64(s2 * (L1 + float64(s4*(L3+float64(s4*(L5+float64(s4*L7)))))))
	t2 := float64(s4 * (L2 + float64(s4*(L4+float64(s4*L6)))))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*Ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*Ln2Lo))) - f)
}

// exp is math/exp.go's pure-Go exp with every product rounded. amd64's
// math.Exp picks an FMA assembly body at run time when the CPU has one,
// and arm64's is assembly too; this one writes the same bits everywhere.
func exp(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10
		Log2e = 1.44269504088896338700e+00

		Overflow  = 7.09782712893383973096e+02
		Underflow = -7.45133219101941108420e+02
		NearZero  = 1.0 / (1 << 28) // 2**-28

		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > Overflow:
		return math.Inf(1)
	case x < Underflow:
		return 0
	case -NearZero < x && x < NearZero:
		return 1 + x
	}

	// reduce; computed as r = hi - lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(Log2e*x) - 0.5)
	case x > 0:
		k = int(float64(Log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*Ln2Hi)
	lo := float64(float64(k) * Ln2Lo)

	// compute: e**r × 2**k where r = hi - lo and |r| ≤ ln(2)/2.
	r := hi - lo
	t := r * r
	c := r - float64(t*(P1+float64(t*(P2+float64(t*(P3+float64(t*(P4+float64(t*P5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}

// The ziggurat tables of "The Ziggurat Method for Generating Random
// Variables" (Marsaglia & Tsang, 2000) for the standard normal, 128
// strips, as math/rand/v2 builds them.

var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
var fn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}
