package dist

import (
	"fmt"
	"math"
)

// Distribution is a source of perturbation magnitudes. Sample draws one
// value using the supplied generator; Mean reports the theoretical (or,
// for empirical distributions, sample) mean. Samples are expressed in
// the same unit as the simulator clock (cycles) but the package itself
// is unit-agnostic.
//
// Implementations must be pure: all randomness comes from the RNG
// argument, never from internal state, so that a Distribution value can
// be shared across ranks and goroutine-free replays stay deterministic.
type Distribution interface {
	// Sample draws a single value.
	Sample(r *RNG) float64
	// Mean returns the expected value of the distribution.
	Mean() float64
	// String returns a short human-readable description, e.g.
	// "exponential(mean=250)".
	String() string
}

// Constant is a degenerate distribution that always returns C. A zero
// Constant is the canonical "no perturbation" source.
type Constant struct {
	C float64
}

// Sample implements Distribution.
func (c Constant) Sample(*RNG) float64 { return c.C }

// Mean implements Distribution.
func (c Constant) Mean() float64 { return c.C }

// String implements Distribution.
func (c Constant) String() string { return fmt.Sprintf("constant(%g)", c.C) }

// Uniform is the continuous uniform distribution on [Low, High).
type Uniform struct {
	Low, High float64
}

// Sample implements Distribution.
//
//mpg:hotpath
func (u Uniform) Sample(r *RNG) float64 {
	return u.Low + (u.High-u.Low)*r.Float64()
}

// Mean implements Distribution.
func (u Uniform) Mean() float64 { return (u.Low + u.High) / 2 }

// String implements Distribution.
func (u Uniform) String() string {
	return fmt.Sprintf("uniform[%g,%g)", u.Low, u.High)
}

// Exponential is the exponential distribution with the given mean
// (i.e. rate 1/MeanValue). The paper singles out the exponential as the
// customary model for queueing-like delays (Section 5).
type Exponential struct {
	MeanValue float64
}

// Sample implements Distribution via the 256-layer ziggurat
// (ziggurat.go): ~99% of draws are one Uint64, one table lookup, and
// one compare; math.Log survives only on the rare tail. The exact
// inverse-CDF sampler this replaced remains available through Exact().
//
//mpg:hotpath
func (e Exponential) Sample(r *RNG) float64 {
	return e.MeanValue * stdExp(r)
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return e.MeanValue }

// String implements Distribution.
func (e Exponential) String() string {
	return fmt.Sprintf("exponential(mean=%g)", e.MeanValue)
}

// Normal is the normal (Gaussian) distribution. Negative samples are
// possible; callers modeling strictly-positive delays should wrap it in
// Truncated or use LogNormal.
type Normal struct {
	Mu, Sigma float64
}

// Sample implements Distribution via the 256-layer symmetric ziggurat
// (ziggurat.go); the Box–Muller sampler it replaced remains available
// through Exact().
//
//mpg:hotpath
func (n Normal) Sample(r *RNG) float64 {
	return n.Mu + n.Sigma*stdNorm(r)
}

// Mean implements Distribution.
func (n Normal) Mean() float64 { return n.Mu }

// String implements Distribution.
func (n Normal) String() string {
	return fmt.Sprintf("normal(mu=%g,sigma=%g)", n.Mu, n.Sigma)
}

// LogNormal is the log-normal distribution: exp(X) where X is normal
// with parameters Mu and Sigma (of the underlying normal).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Distribution.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(Normal{Mu: l.Mu, Sigma: l.Sigma}.Sample(r))
}

// Mean implements Distribution.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// String implements Distribution.
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal(mu=%g,sigma=%g)", l.Mu, l.Sigma)
}

// Pareto is the Pareto (power-law) distribution with scale Xm > 0 and
// shape Alpha > 0. Heavy-tailed OS interference (rare long daemon
// activations) is well modeled by small Alpha.
type Pareto struct {
	Xm, Alpha float64
}

// Sample implements Distribution by inverse-CDF.
func (p Pareto) Sample(r *RNG) float64 {
	return p.Xm / math.Pow(r.Float64Open(), 1/p.Alpha)
}

// Mean implements Distribution. The mean is infinite for Alpha <= 1; in
// that case +Inf is returned.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// String implements Distribution.
func (p Pareto) String() string {
	return fmt.Sprintf("pareto(xm=%g,alpha=%g)", p.Xm, p.Alpha)
}

// Spike models intermittent interference: with probability P the value
// is drawn from Magnitude, otherwise it is zero. This is the natural
// shape of timer-tick / daemon OS noise observed by FTQ-style
// microbenchmarks: most quanta are clean, a few lose a large chunk.
type Spike struct {
	P         float64
	Magnitude Distribution
}

// Sample implements Distribution.
func (s Spike) Sample(r *RNG) float64 {
	if r.Float64() < s.P {
		return s.Magnitude.Sample(r)
	}
	// Burn the magnitude draw? No: keep streams minimal and document
	// that Spike consumes one uniform always and one magnitude sample
	// only when it fires.
	return 0
}

// Mean implements Distribution.
func (s Spike) Mean() float64 { return s.P * s.Magnitude.Mean() }

// String implements Distribution.
func (s Spike) String() string {
	return fmt.Sprintf("spike(p=%g,%s)", s.P, s.Magnitude)
}

// Shifted adds a constant offset to every sample of the inner
// distribution. Useful to express "base latency + jitter".
type Shifted struct {
	Offset float64
	Inner  Distribution
}

// Sample implements Distribution.
func (s Shifted) Sample(r *RNG) float64 { return s.Offset + s.Inner.Sample(r) }

// Mean implements Distribution.
func (s Shifted) Mean() float64 { return s.Offset + s.Inner.Mean() }

// String implements Distribution.
func (s Shifted) String() string {
	return fmt.Sprintf("shifted(%g+%s)", s.Offset, s.Inner)
}

// Scaled multiplies every sample of the inner distribution by Factor.
type Scaled struct {
	Factor float64
	Inner  Distribution
}

// Sample implements Distribution.
func (s Scaled) Sample(r *RNG) float64 { return s.Factor * s.Inner.Sample(r) }

// Mean implements Distribution.
func (s Scaled) Mean() float64 { return s.Factor * s.Inner.Mean() }

// String implements Distribution.
func (s Scaled) String() string {
	return fmt.Sprintf("scaled(%g*%s)", s.Factor, s.Inner)
}

// Truncated clamps samples of the inner distribution to [Low, High].
// It clamps rather than rejection-samples so that the number of RNG
// draws per sample is constant (replay determinism is easier to reason
// about, and the analyzer samples in hot loops).
type Truncated struct {
	Low, High float64
	Inner     Distribution
}

// Sample implements Distribution.
func (t Truncated) Sample(r *RNG) float64 {
	v := t.Inner.Sample(r)
	if v < t.Low {
		return t.Low
	}
	if v > t.High {
		return t.High
	}
	return v
}

// Mean implements Distribution. The clamped mean has no closed form in
// general; the inner mean clamped to the interval is returned as an
// approximation and documented as such.
func (t Truncated) Mean() float64 {
	m := t.Inner.Mean()
	if m < t.Low {
		return t.Low
	}
	if m > t.High {
		return t.High
	}
	return m
}

// String implements Distribution.
func (t Truncated) String() string {
	return fmt.Sprintf("truncated[%g,%g](%s)", t.Low, t.High, t.Inner)
}
