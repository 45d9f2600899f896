package dist

import (
	"fmt"
	"math"
	"sort"
)

// Empirical is a distribution built directly from observed samples, the
// paper's second parameterization method (Section 5): "use the data
// itself to build an empirical distribution". Sampling draws uniformly
// from the sorted sample set with linear interpolation between adjacent
// order statistics, i.e. it inverts the empirical CDF. By the law of
// large numbers the empirical distribution converges to the true one as
// the sample count grows; TestEmpiricalApproachesAnalytic exercises
// exactly that property.
type Empirical struct {
	sorted []float64
	mean   float64
}

// NewEmpirical builds an empirical distribution from the given samples.
// The input slice is copied and may be reused by the caller. It panics
// if no samples are provided or any sample is NaN.
func NewEmpirical(samples []float64) *Empirical {
	if len(samples) == 0 {
		panic("dist: empirical distribution needs at least one sample")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sum := 0.0
	for _, v := range s {
		if math.IsNaN(v) {
			panic("dist: empirical sample is NaN")
		}
		sum += v
	}
	sort.Float64s(s)
	return &Empirical{sorted: s, mean: sum / float64(len(s))}
}

// Sample implements Distribution by inverse transform sampling of the
// piecewise-linear empirical CDF.
func (e *Empirical) Sample(r *RNG) float64 {
	return e.Quantile(r.Float64())
}

// Quantile returns the q-th quantile (q in [0,1]) of the empirical
// distribution, with linear interpolation between order statistics.
func (e *Empirical) Quantile(q float64) float64 {
	n := len(e.sorted)
	if n == 1 {
		return e.sorted[0]
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return e.sorted[n-1]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Mean implements Distribution, returning the sample mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Min returns the smallest observed sample.
func (e *Empirical) Min() float64 { return e.sorted[0] }

// Max returns the largest observed sample.
func (e *Empirical) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Len returns the number of underlying samples.
func (e *Empirical) Len() int { return len(e.sorted) }

// String implements Distribution.
func (e *Empirical) String() string {
	return fmt.Sprintf("empirical(n=%d,mean=%g)", len(e.sorted), e.mean)
}
