package dist

import "fmt"

// FitExponential estimates an Exponential distribution from samples by
// maximum likelihood (the MLE of the mean is the sample mean). This is
// the paper's first parameterization method: assume a family, estimate
// its parameters from microbenchmark measurements (Section 5).
func FitExponential(samples []float64) (Exponential, error) {
	if len(samples) == 0 {
		return Exponential{}, fmt.Errorf("dist: cannot fit exponential to empty sample")
	}
	sum := 0.0
	for _, v := range samples {
		if v < 0 {
			return Exponential{}, fmt.Errorf("dist: exponential fit saw negative sample %g", v)
		}
		sum += v
	}
	return Exponential{MeanValue: sum / float64(len(samples))}, nil
}

// SampleN draws n samples from d into a fresh slice.
func SampleN(d Distribution, r *RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}
