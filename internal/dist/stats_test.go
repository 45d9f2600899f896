package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	wantClose(t, "mean", s.Mean, 5, 1e-12)
	// Unbiased variance of this classic data set is 32/7.
	wantClose(t, "variance", s.Variance, 32.0/7, 1e-9)
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %g/%g", s.Min, s.Max)
	}
	if s.N != 8 {
		t.Fatalf("n = %d", s.N)
	}
	wantClose(t, "median", s.Median, 4.5, 1e-12)
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Variance != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Variance != 0 || s.Median != 3 {
		t.Fatalf("single summary: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestQuantileFunction(t *testing.T) {
	data := []float64{40, 10, 20, 30, 0}
	if got := Quantile(data, 0.5); got != 20 {
		t.Fatalf("median = %g", got)
	}
	if got := Quantile(data, 0); got != 0 {
		t.Fatalf("q0 = %g", got)
	}
	if got := Quantile(data, 1); got != 40 {
		t.Fatalf("q1 = %g", got)
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	data := SampleN(Normal{Mu: 50, Sigma: 10}, NewRNG(1), 5000)
	var w Welford
	for _, v := range data {
		w.Add(v)
	}
	s := Summarize(data)
	wantClose(t, "welford mean", w.Mean(), s.Mean, 1e-9)
	wantClose(t, "welford variance", w.Variance(), s.Variance, 1e-6)
	if w.Min() != s.Min || w.Max() != s.Max {
		t.Fatalf("welford min/max %g/%g vs %g/%g", w.Min(), w.Max(), s.Min, s.Max)
	}
	if w.N() != int64(s.N) {
		t.Fatalf("welford n = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Fatal("empty welford not zero")
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{10, 13, 16, 19, 22} // y = 3x + 10
	f := FitLinear(xs, ys)
	wantClose(t, "slope", f.Slope, 3, 1e-12)
	wantClose(t, "intercept", f.Intercept, 10, 1e-12)
	wantClose(t, "r2", f.R2, 1, 1e-12)
}

func TestFitLinearNoisy(t *testing.T) {
	r := NewRNG(3)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+5+Normal{Sigma: 1}.Sample(r))
	}
	f := FitLinear(xs, ys)
	wantClose(t, "slope", f.Slope, 2, 0.01)
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %g too low for nearly-linear data", f.R2)
	}
}

func TestFitLinearPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"short":    func() { FitLinear([]float64{1}, []float64{2}) },
		"mismatch": func() { FitLinear([]float64{1, 2}, []float64{3}) },
		"constant": func() { FitLinear([]float64{1, 1}, []float64{2, 3}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestQuickWelfordMeanWithinHull(t *testing.T) {
	f := func(raw []float64) bool {
		var w Welford
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			w.Add(v)
			n++
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if n == 0 {
			return true
		}
		m := w.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && w.Variance() >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
