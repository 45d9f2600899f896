package dist

import (
	"fmt"
	"math"
)

// Weibull is the Weibull distribution with scale Lambda > 0 and shape
// K > 0. K < 1 gives heavy-tailed interference; K = 1 degenerates to
// the exponential; K > 1 concentrates around the scale — a flexible
// family for fitted latency models.
type Weibull struct {
	Lambda, K float64
}

// Sample implements Distribution by inverse-CDF.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Lambda * math.Pow(-math.Log(r.Float64Open()), 1/w.K)
}

// Mean implements Distribution: λ·Γ(1+1/k).
func (w Weibull) Mean() float64 {
	return w.Lambda * math.Gamma(1+1/w.K)
}

// String implements Distribution.
func (w Weibull) String() string {
	return fmt.Sprintf("weibull(lambda=%g,k=%g)", w.Lambda, w.K)
}

// Gamma is the gamma distribution with shape K > 0 and scale Theta > 0
// (mean K·Theta). Erlang-like delay chains (K integral) and
// sub-exponential noise (K < 1) both live here.
type Gamma struct {
	K, Theta float64
}

// Sample implements Distribution with the Marsaglia–Tsang method
// (rejection sampling; the number of RNG draws per sample varies, but
// the stream remains fully deterministic).
func (g Gamma) Sample(r *RNG) float64 {
	k := g.K
	boost := 1.0
	if k < 1 {
		// Boost the shape and correct with U^(1/k) (Marsaglia–Tsang
		// small-shape trick).
		boost = math.Pow(r.Float64Open(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := Normal{Mu: 0, Sigma: 1}.Sample(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64Open()
		if u < 1-0.0331*x*x*x*x {
			return g.Theta * d * v * boost
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return g.Theta * d * v * boost
		}
	}
}

// Mean implements Distribution.
func (g Gamma) Mean() float64 { return g.K * g.Theta }

// String implements Distribution.
func (g Gamma) String() string {
	return fmt.Sprintf("gamma(k=%g,theta=%g)", g.K, g.Theta)
}
