package dist

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of a sample set, the form in
// which microbenchmark results are reported and compared across
// platforms ("platform signature" components, paper Section 5).
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
	P95      float64
	P99      float64
}

// Summarize computes descriptive statistics for the given samples. An
// empty input yields a zero Summary.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	s := make([]float64, n)
	copy(s, samples)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(n)
	varsum := 0.0
	for _, v := range s {
		d := v - mean
		varsum += d * d
	}
	variance := 0.0
	if n > 1 {
		variance = varsum / float64(n-1)
	}
	return Summary{
		N:        n,
		Mean:     mean,
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		Min:      s[0],
		Max:      s[n-1],
		Median:   quantileSorted(s, 0.5),
		P95:      quantileSorted(s, 0.95),
		P99:      quantileSorted(s, 0.99),
	}
}

// quantileSorted interpolates the q-quantile of an already-sorted
// sample.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples without
// requiring them to be pre-sorted.
func Quantile(samples []float64, q float64) float64 {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// String renders the summary in a single line suitable for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.P95, s.P99, s.Max)
}

// Welford is an online mean/variance accumulator (Welford's algorithm).
// The streaming analyzer uses it to accumulate per-rank slack and delay
// statistics without retaining samples.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
//
//mpg:hotpath
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (zero if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased running variance (zero if n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (zero if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (zero if empty).
func (w *Welford) Max() float64 { return w.max }

// LinearFit holds the result of an ordinary least-squares fit
// y = Slope*x + Intercept, used by the Section 6.1 experiment to test
// the paper's claim that runtime grows linearly with injected noise.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// FitLinear performs an OLS fit of ys against xs. It panics if the
// slices differ in length or have fewer than two points.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("dist: linear fit needs >= 2 paired points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("dist: linear fit with zero x variance")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (slope*xs[i] + intercept)
			ssRes += r * r
		}
		r2 = 1 - ssRes/syy
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}
