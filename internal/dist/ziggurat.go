package dist

import "math"

// Ziggurat fast sampling (Marsaglia & Tsang 2000) for the two
// distributions that dominate replay cost: Exponential and Normal.
//
// A replay profile (DESIGN.md §8.1) showed ~50% of replay time
// inside `-mean * math.Log(u)`. The ziggurat replaces the per-draw
// logarithm with a 256-layer table lookup: the target density is
// covered by 256 equal-area horizontal regions; a draw picks a region
// from 8 random bits and a horizontal position from 53 more, and in
// ~99% of draws the position falls strictly inside the region's
// rectangle, where acceptance needs one compare against a precomputed
// edge — no transcendental at all. Only wedge and tail draws (the
// remaining ~1%) fall back to math.Exp/math.Log.
//
// Determinism contract: all randomness still flows through the caller's
// *RNG, so a draw is a pure function of the generator's state and two
// generators with equal seeds produce identical sample streams — across
// engines and platforms. The *stream itself* differs from
// the pre-ziggurat inverse-CDF/Box–Muller samplers (a fast-path draw
// consumes exactly one Uint64; wedge retries consume one Uint64 plus
// one Float64 each; tail draws consume Float64Open pairs), which is why
// SamplerVersion exists and the exact reference samplers survive behind
// Exact() for differential testing.
//
// Table construction follows the standard recurrence: with R the tail
// cut and V the common region area (V = R·f(R) + tail mass), the layer
// edges satisfy x₀ = V/f(R), x₁ = R, xᵢ = f⁻¹(V/xᵢ₋₁ + f(xᵢ₋₁)). The
// published 256-layer cut points make the recurrence close to within
// double-precision rounding; the acceptance tests in statcheck_test.go
// and ziggurat_test.go pin the resulting distributions against analytic
// CDFs and the exact samplers.

// SamplerVersion names the random-stream-defining sampling algorithms
// in this package. Any change that alters the values or the RNG bit
// consumption of a Sample implementation must bump it; sampler-
// dependent goldens record the version they were generated with (see
// the TestGoldenProvenance tests next to each golden set).
const SamplerVersion = "ziggurat-v1"

const (
	zigLayers = 256
	// zigExpR / zigNormR are the published 256-layer tail cut points
	// for f(x)=e^{-x} and f(x)=e^{-x²/2} respectively.
	zigExpR  = 7.6971174701310497140446280481
	zigNormR = 3.6541528853610087963519472518
	// inv53 converts a 53-bit integer to [0,1).
	inv53 = 1.0 / (1 << 53)
)

var (
	// zigExpX[i] is layer i's right edge (x₀ > R is the virtual base
	// edge; x₂₅₆ = 0); zigExpF[i] = f(zigExpX[i]); zigExpW[i] =
	// zigExpX[i]/2⁵³ pre-divides the edge so the hot path turns 53
	// random bits into a position with one multiply.
	zigExpX [zigLayers + 1]float64
	zigExpF [zigLayers + 1]float64
	zigExpW [zigLayers]float64

	zigNormX [zigLayers + 1]float64
	zigNormF [zigLayers + 1]float64
	zigNormW [zigLayers]float64
)

func init() {
	expPDF := func(x float64) float64 { return math.Exp(-x) }
	expInv := func(y float64) float64 { return -math.Log(y) }
	buildZiggurat(zigExpR, math.Exp(-zigExpR), expPDF, expInv,
		&zigExpX, &zigExpF, &zigExpW)

	normPDF := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	normInv := func(y float64) float64 { return math.Sqrt(-2 * math.Log(y)) }
	normTail := math.Sqrt(math.Pi/2) * math.Erfc(zigNormR/math.Sqrt2)
	buildZiggurat(zigNormR, normTail, normPDF, normInv,
		&zigNormX, &zigNormF, &zigNormW)
}

// buildZiggurat fills one table set from the tail cut r, the tail mass
// beyond it, the (unnormalized) density f, and its inverse on (0, f(0)].
func buildZiggurat(r, tail float64, f, finv func(float64) float64,
	x, fv *[zigLayers + 1]float64, w *[zigLayers]float64) {
	v := r*f(r) + tail
	x[0] = v / f(r)
	x[1] = r
	for i := 2; i < zigLayers; i++ {
		x[i] = finv(v/x[i-1] + f(x[i-1]))
	}
	x[zigLayers] = 0
	for i := range x {
		fv[i] = f(x[i])
	}
	for i := range w {
		w[i] = x[i] * inv53
	}
}

// stdExp draws a standard exponential (mean 1) variate. The fast path
// is one Uint64: 8 low bits select a layer, 53 high bits place the
// draw inside it, one compare accepts ~98.9% of draws.
//
//mpg:hotpath
func stdExp(r *RNG) float64 {
	u := r.Uint64()
	i := u & 0xff
	x := float64(u>>11) * zigExpW[i]
	if x < zigExpX[i+1] {
		return x
	}
	return stdExpSlow(r, i, x)
}

// stdExpSlow resolves a draw that landed outside layer i's inner
// rectangle: layer 0 overflows into the analytic tail (memorylessness:
// the conditional law beyond R is R + Exp(1)), other layers run the
// wedge test against the true density and redraw on rejection.
//
//mpg:hotpath
func stdExpSlow(r *RNG, i uint64, x float64) float64 {
	for {
		if i == 0 {
			return zigExpR - math.Log(r.Float64Open())
		}
		if zigExpF[i+1]+(zigExpF[i]-zigExpF[i+1])*r.Float64() < math.Exp(-x) {
			return x
		}
		u := r.Uint64()
		i = u & 0xff
		x = float64(u>>11) * zigExpW[i]
		if x < zigExpX[i+1] {
			return x
		}
	}
}

// stdNorm draws a standard normal variate. As stdExp, but one extra
// bit (bit 8, disjoint from both the layer index and the 53 position
// bits) carries the sign of the symmetric density.
//
//mpg:hotpath
func stdNorm(r *RNG) float64 {
	u := r.Uint64()
	i := u & 0xff
	x := float64(u>>11) * zigNormW[i]
	if x < zigNormX[i+1] {
		if u&0x100 != 0 {
			return -x
		}
		return x
	}
	return stdNormSlow(r, u)
}

// stdNormSlow resolves a normal draw outside the inner rectangle:
// layer 0 uses Marsaglia's tail algorithm beyond R, other layers run
// the wedge test and redraw on rejection.
//
//mpg:hotpath
func stdNormSlow(r *RNG, u uint64) float64 {
	i := u & 0xff
	x := float64(u>>11) * zigNormW[i]
	for {
		if i == 0 {
			for {
				xt := -math.Log(r.Float64Open()) / zigNormR
				yt := -math.Log(r.Float64Open())
				if yt+yt > xt*xt {
					if u&0x100 != 0 {
						return -(zigNormR + xt)
					}
					return zigNormR + xt
				}
			}
		}
		if zigNormF[i+1]+(zigNormF[i]-zigNormF[i+1])*r.Float64() < math.Exp(-0.5*x*x) {
			if u&0x100 != 0 {
				return -x
			}
			return x
		}
		u = r.Uint64()
		i = u & 0xff
		x = float64(u>>11) * zigNormW[i]
		if x < zigNormX[i+1] {
			if u&0x100 != 0 {
				return -x
			}
			return x
		}
	}
}

// Exact returns a distribution over the same law as d that samples
// with the pre-ziggurat reference algorithms: inverse-CDF for
// Exponential (-mean·ln U), Box–Muller for Normal, and exp(Box–Muller)
// for LogNormal, recursing through the wrapper distributions (Shifted,
// Scaled, Truncated, Spike). Distributions whose sampler
// never changed are returned unchanged. Exact exists for differential
// testing — two-sample KS between the ziggurat and reference streams —
// and as an escape hatch for experiments that must reproduce
// pre-ziggurat sample streams bit for bit.
func Exact(d Distribution) Distribution {
	switch v := d.(type) {
	case Exponential:
		return exactExponential{v}
	case Normal:
		return exactNormal{v}
	case LogNormal:
		return exactLogNormal{v}
	case Shifted:
		return Shifted{Offset: v.Offset, Inner: Exact(v.Inner)}
	case Scaled:
		return Scaled{Factor: v.Factor, Inner: Exact(v.Inner)}
	case Truncated:
		return Truncated{Low: v.Low, High: v.High, Inner: Exact(v.Inner)}
	case Spike:
		return Spike{P: v.P, Magnitude: Exact(v.Magnitude)}
	default:
		return d
	}
}

// exactExponential samples by inverse CDF, the pre-ziggurat algorithm:
// one Float64Open draw, -mean·ln(u).
type exactExponential struct{ Exponential }

// Sample implements Distribution.
func (e exactExponential) Sample(r *RNG) float64 {
	return -e.MeanValue * math.Log(r.Float64Open())
}

// String implements Distribution.
func (e exactExponential) String() string {
	return "exact(" + e.Exponential.String() + ")"
}

// exactNormal samples with the Box–Muller transform, the pre-ziggurat
// algorithm: one Float64Open and one Float64 draw, only the cosine
// variate used so sampling remains a pure function of stream position.
type exactNormal struct{ Normal }

// Sample implements Distribution.
func (n exactNormal) Sample(r *RNG) float64 {
	u1 := r.Float64Open()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return n.Mu + n.Sigma*z
}

// String implements Distribution.
func (n exactNormal) String() string {
	return "exact(" + n.Normal.String() + ")"
}

// exactLogNormal exponentiates an exact normal draw.
type exactLogNormal struct{ LogNormal }

// Sample implements Distribution.
func (l exactLogNormal) Sample(r *RNG) float64 {
	return math.Exp(exactNormal{Normal{Mu: l.Mu, Sigma: l.Sigma}}.Sample(r))
}

// String implements Distribution.
func (l exactLogNormal) String() string {
	return "exact(" + l.LogNormal.String() + ")"
}
