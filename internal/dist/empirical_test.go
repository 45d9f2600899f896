package dist

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical([]float64{3, 1, 2})
	if e.Len() != 3 {
		t.Fatalf("Len = %d", e.Len())
	}
	if e.Min() != 1 || e.Max() != 3 {
		t.Fatalf("min/max = %g/%g", e.Min(), e.Max())
	}
	wantClose(t, "mean", e.Mean(), 2, 1e-12)
}

func TestEmpiricalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sample")
		}
	}()
	NewEmpirical(nil)
}

func TestEmpiricalPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN sample")
		}
	}()
	NewEmpirical([]float64{1, math.NaN()})
}

func TestEmpiricalQuantiles(t *testing.T) {
	e := NewEmpirical([]float64{0, 10, 20, 30, 40})
	for _, tc := range []struct{ q, want float64 }{
		{0, 0}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40},
		{-1, 0}, {2, 40}, {0.125, 5},
	} {
		if got := e.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestEmpiricalSingleSample(t *testing.T) {
	e := NewEmpirical([]float64{7})
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if v := e.Sample(r); v != 7 {
			t.Fatalf("single-sample empirical returned %g", v)
		}
	}
}

func TestEmpiricalSamplesWithinRange(t *testing.T) {
	e := NewEmpirical([]float64{5, 10, 15, 20})
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := e.Sample(r)
		if v < 5 || v > 20 {
			t.Fatalf("sample %g outside data range [5,20]", v)
		}
	}
}

// empiricalCDF returns the empirical cumulative probability at x: the
// fraction of e's samples <= x.
func empiricalCDF(e *Empirical, x float64) float64 {
	// sort.SearchFloat64s gives the count of samples < x when we search
	// for x and adjust for equal values.
	n := len(e.sorted)
	i := sort.SearchFloat64s(e.sorted, x)
	for i < n && e.sorted[i] <= x {
		i++
	}
	return float64(i) / float64(n)
}

func TestEmpiricalCDF(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 2, 3})
	for _, tc := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	} {
		if got := empiricalCDF(e, tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("CDF(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
}

// TestEmpiricalApproachesAnalytic is Ablation B's core invariant: an
// empirical distribution built from n samples of an analytic family
// converges (in KS distance and in mean) to that family as n grows —
// the law-of-large-numbers argument in Section 5 of the paper.
func TestEmpiricalApproachesAnalytic(t *testing.T) {
	truth := Exponential{MeanValue: 100}
	prevKS := math.Inf(1)
	for _, n := range []int{100, 1000, 10000, 100000} {
		r := NewRNG(uint64(n))
		data := SampleN(truth, r, n)
		emp := NewEmpirical(data)

		// Resample from the empirical distribution and compare with a
		// fresh draw from the truth.
		resampled := SampleN(emp, NewRNG(1), 20000)
		fresh := SampleN(truth, NewRNG(2), 20000)
		ks := KSStatTwo(resampled, fresh)
		if n >= 10000 && ks > 0.03 {
			t.Errorf("n=%d: KS distance %g too large", n, ks)
		}
		// The KS distance should broadly shrink with n (allow noise by
		// only comparing the two extremes).
		if n == 100 {
			prevKS = ks
		}
		if n == 100000 && ks > prevKS {
			t.Errorf("KS did not shrink: n=100 gave %g, n=100000 gave %g", prevKS, ks)
		}
		wantClose(t, "empirical mean", emp.Mean(), 100, 5/math.Sqrt(float64(n)))
	}
}

func TestQuickEmpiricalQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		data := SampleN(Normal{Mu: 0, Sigma: 10}, r, 64)
		e := NewEmpirical(data)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEmpiricalSampleInHull(t *testing.T) {
	f := func(seed uint64, raw []float64) bool {
		var data []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		e := NewEmpirical(data)
		sort.Float64s(data)
		r := NewRNG(seed)
		for i := 0; i < 20; i++ {
			v := e.Sample(r)
			if v < data[0] || v > data[len(data)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
