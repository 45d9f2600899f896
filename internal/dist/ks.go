package dist

import (
	"math"
	"sort"
)

// Kolmogorov–Smirnov machinery for the statistical correctness
// harness: the sampler acceptance suite (statcheck_test.go) pins every
// Distribution implementation against its analytic CDF, and the
// differential ziggurat tests (ziggurat_test.go) pin the fast samplers
// against the exact reference samplers with the two-sample statistic.

// KSStat computes the one-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_n(x) − F(x)| of the samples against a continuous CDF.
// The input is not modified.
func KSStat(samples []float64, cdf func(float64) float64) float64 {
	return KSStatAtomic(samples, cdf, cdf)
}

// KSStatAtomic is KSStat generalized to distributions with atoms
// (point masses): cdfLeft must return the left limit F(x⁻). The
// statistic is then D = sup_x max(F_n(x) − F(x), F(x⁻) − F_n(x⁻)),
// which reduces to the classic two-sided statistic when F is
// continuous (cdfLeft == cdf) and stays conservative at jumps — a
// correct empirical atom contributes no spurious deviation. Degenerate
// and clamped distributions (Constant, Spike, Truncated) need this
// form.
func KSStatAtomic(samples []float64, cdf, cdfLeft func(float64) float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, samples)
	sort.Float64s(s)
	d := 0.0
	fn := float64(n)
	for i, x := range s {
		if up := float64(i+1)/fn - cdf(x); up > d {
			d = up
		}
		if down := cdfLeft(x) - float64(i)/fn; down > d {
			d = down
		}
	}
	return d
}

// KSCriticalOne returns the asymptotic one-sample rejection threshold
// at significance level alpha: c(α)/√n with c(α) = √(ln(2/α)/2). A
// statistic above it rejects the hypothesis that the samples follow
// the reference CDF with false-positive probability ≤ α. The harness
// runs at fixed seeds, so a pass is deterministic; α only calibrates
// how far from the analytic law a code change must wander to fail.
func KSCriticalOne(alpha float64, n int) float64 {
	return math.Sqrt(math.Log(2/alpha)/2) / math.Sqrt(float64(n))
}

// KSStatTwo computes the two-sample Kolmogorov–Smirnov statistic
// D = sup_x |F_a(x) − F_b(x)| between two sample sets. Ties across
// the sets are handled by advancing both empirical CDFs past the tied
// value before comparing. The inputs are not modified.
func KSStatTwo(a, b []float64) float64 {
	sa := make([]float64, len(a))
	copy(sa, a)
	sort.Float64s(sa)
	sb := make([]float64, len(b))
	copy(sb, b)
	sort.Float64s(sb)
	na, nb := float64(len(sa)), float64(len(sb))
	d := 0.0
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] <= v {
			i++
		}
		for j < len(sb) && sb[j] <= v {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// KSCriticalTwo returns the asymptotic two-sample rejection threshold
// at significance level alpha for sample sizes n and m:
// c(α)·√((n+m)/(n·m)).
func KSCriticalTwo(alpha float64, n, m int) float64 {
	return math.Sqrt(math.Log(2/alpha)/2) *
		math.Sqrt(float64(n+m)/(float64(n)*float64(m)))
}
