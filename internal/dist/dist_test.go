package dist

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(t *testing.T, d Distribution, seed uint64, n int) float64 {
	t.Helper()
	r := NewRNG(seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

// wantClose fails unless got is within rel of want (or within abs for
// tiny want).
func wantClose(t *testing.T, name string, got, want, rel float64) {
	t.Helper()
	tol := rel * math.Abs(want)
	if tol < 1e-9 {
		tol = 1e-9
	}
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestConstant(t *testing.T) {
	c := Constant{C: 42}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if v := c.Sample(r); v != 42 {
			t.Fatalf("constant sample %g != 42", v)
		}
	}
	if c.Mean() != 42 {
		t.Fatalf("constant mean %g != 42", c.Mean())
	}
}

func TestUniformMeanAndBounds(t *testing.T) {
	u := Uniform{Low: 10, High: 30}
	r := NewRNG(2)
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 10 || v >= 30 {
			t.Fatalf("uniform sample %g out of [10,30)", v)
		}
	}
	wantClose(t, "uniform mean", sampleMean(t, u, 3, 100000), 20, 0.01)
	if u.Mean() != 20 {
		t.Fatalf("uniform analytic mean %g != 20", u.Mean())
	}
}

func TestExponentialMoments(t *testing.T) {
	e := Exponential{MeanValue: 250}
	wantClose(t, "exp mean", sampleMean(t, e, 4, 200000), 250, 0.02)
	// Exponential variance = mean^2; check via second moment.
	r := NewRNG(5)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := e.Sample(r)
		if v < 0 {
			t.Fatalf("exponential produced negative sample %g", v)
		}
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	wantClose(t, "exp variance", variance, 250*250, 0.05)
}

func TestNormalMoments(t *testing.T) {
	nrm := Normal{Mu: 100, Sigma: 15}
	r := NewRNG(6)
	var sum, sum2 float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := nrm.Sample(r)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	wantClose(t, "normal mean", mean, 100, 0.01)
	wantClose(t, "normal sd", sd, 15, 0.03)
}

func TestLogNormalMean(t *testing.T) {
	l := LogNormal{Mu: 3, Sigma: 0.5}
	want := math.Exp(3 + 0.25/2)
	wantClose(t, "lognormal analytic mean", l.Mean(), want, 1e-12)
	wantClose(t, "lognormal sample mean", sampleMean(t, l, 7, 300000), want, 0.03)
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		if v := l.Sample(r); v <= 0 {
			t.Fatalf("lognormal produced non-positive sample %g", v)
		}
	}
}

func TestParetoMeanAndSupport(t *testing.T) {
	p := Pareto{Xm: 100, Alpha: 3}
	wantClose(t, "pareto analytic mean", p.Mean(), 150, 1e-12)
	wantClose(t, "pareto sample mean", sampleMean(t, p, 9, 400000), 150, 0.05)
	r := NewRNG(10)
	for i := 0; i < 1000; i++ {
		if v := p.Sample(r); v < 100 {
			t.Fatalf("pareto sample %g below xm", v)
		}
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("pareto mean should be +Inf for alpha <= 1")
	}
}

func TestSpikeFiringRateAndMean(t *testing.T) {
	s := Spike{P: 0.1, Magnitude: Constant{C: 1000}}
	r := NewRNG(11)
	const n = 100000
	fired := 0
	for i := 0; i < n; i++ {
		v := s.Sample(r)
		switch v {
		case 0:
		case 1000:
			fired++
		default:
			t.Fatalf("spike sample %g is neither 0 nor 1000", v)
		}
	}
	rate := float64(fired) / n
	wantClose(t, "spike rate", rate, 0.1, 0.05)
	wantClose(t, "spike mean", s.Mean(), 100, 1e-12)
}

func TestShiftedScaledTruncated(t *testing.T) {
	base := Uniform{Low: 0, High: 10}
	sh := Shifted{Offset: 100, Inner: base}
	wantClose(t, "shifted mean", sh.Mean(), 105, 1e-12)
	r := NewRNG(12)
	for i := 0; i < 1000; i++ {
		if v := sh.Sample(r); v < 100 || v >= 110 {
			t.Fatalf("shifted sample %g out of [100,110)", v)
		}
	}

	sc := Scaled{Factor: 3, Inner: base}
	wantClose(t, "scaled mean", sc.Mean(), 15, 1e-12)
	for i := 0; i < 1000; i++ {
		if v := sc.Sample(r); v < 0 || v >= 30 {
			t.Fatalf("scaled sample %g out of [0,30)", v)
		}
	}

	tr := Truncated{Low: 2, High: 5, Inner: base}
	for i := 0; i < 1000; i++ {
		if v := tr.Sample(r); v < 2 || v > 5 {
			t.Fatalf("truncated sample %g out of [2,5]", v)
		}
	}
}

func TestSampleDeterminismAcrossDistributions(t *testing.T) {
	// Property: every distribution type, sampled with identically
	// seeded RNGs, yields identical streams.
	dists := []Distribution{
		Constant{C: 5},
		Uniform{Low: 0, High: 1},
		Exponential{MeanValue: 3},
		Normal{Mu: 0, Sigma: 1},
		LogNormal{Mu: 0, Sigma: 0.3},
		Pareto{Xm: 1, Alpha: 2},
		Spike{P: 0.3, Magnitude: Exponential{MeanValue: 10}},
		Shifted{Offset: 1, Inner: Uniform{Low: 0, High: 1}},
		Truncated{Low: 0, High: 2, Inner: Normal{Mu: 1, Sigma: 1}},
	}
	for _, d := range dists {
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < 100; i++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%s: non-deterministic sample at %d: %g != %g", d, i, x, y)
			}
		}
	}
}

func TestQuickUniformWithinBounds(t *testing.T) {
	f := func(seed uint64, a, b uint16) bool {
		lo, hi := float64(a), float64(a)+float64(b)+1
		u := Uniform{Low: lo, High: hi}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := u.Sample(r)
			if v < lo || v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickExponentialNonNegative(t *testing.T) {
	f := func(seed uint64, m uint16) bool {
		e := Exponential{MeanValue: float64(m)}
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if e.Sample(r) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, tc := range []struct {
		d    Distribution
		want string
	}{
		{Constant{C: 5}, "constant(5)"},
		{Uniform{Low: 0, High: 2}, "uniform[0,2)"},
		{Exponential{MeanValue: 3}, "exponential(mean=3)"},
		{Normal{Mu: 1, Sigma: 2}, "normal(mu=1,sigma=2)"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
