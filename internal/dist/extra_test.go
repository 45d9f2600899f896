package dist

import (
	"math"
	"testing"
)

func TestWeibullMoments(t *testing.T) {
	for _, tc := range []struct{ lambda, k float64 }{
		{100, 1},   // exponential
		{100, 2},   // Rayleigh-like
		{50, 0.7},  // heavy tail
		{200, 3.5}, // concentrated
	} {
		w := Weibull{Lambda: tc.lambda, K: tc.k}
		want := tc.lambda * math.Gamma(1+1/tc.k)
		wantClose(t, w.String()+" analytic mean", w.Mean(), want, 1e-12)
		wantClose(t, w.String()+" sample mean", sampleMean(t, w, 1, 300000), want, 0.03)
	}
}

func TestWeibullK1MatchesExponential(t *testing.T) {
	// Weibull(λ, 1) is exponential(λ); their means agree and both
	// distributions' sampled CDFs should be close.
	w := SampleN(Weibull{Lambda: 100, K: 1}, NewRNG(2), 30000)
	e := SampleN(Exponential{MeanValue: 100}, NewRNG(3), 30000)
	if ks := KSStatTwo(w, e); ks > 0.02 {
		t.Fatalf("Weibull(k=1) vs exponential KS = %g", ks)
	}
}

func TestWeibullNonNegative(t *testing.T) {
	w := Weibull{Lambda: 10, K: 0.5}
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		if w.Sample(r) < 0 {
			t.Fatal("negative Weibull sample")
		}
	}
}

func TestGammaMoments(t *testing.T) {
	for _, tc := range []struct{ k, theta float64 }{
		{1, 100},  // exponential
		{4, 25},   // Erlang-4
		{0.5, 50}, // sub-exponential shape
		{9, 10},
	} {
		g := Gamma{K: tc.k, Theta: tc.theta}
		want := tc.k * tc.theta
		wantClose(t, g.String()+" analytic mean", g.Mean(), want, 1e-12)
		wantClose(t, g.String()+" sample mean", sampleMean(t, g, 5, 300000), want, 0.03)
	}
}

func TestGammaVariance(t *testing.T) {
	g := Gamma{K: 4, Theta: 25}
	r := NewRNG(6)
	var w Welford
	for i := 0; i < 300000; i++ {
		w.Add(g.Sample(r))
	}
	// Var = k·θ² = 2500.
	wantClose(t, "gamma variance", w.Variance(), 2500, 0.05)
}

func TestGammaK1MatchesExponential(t *testing.T) {
	g := SampleN(Gamma{K: 1, Theta: 100}, NewRNG(7), 30000)
	e := SampleN(Exponential{MeanValue: 100}, NewRNG(8), 30000)
	if ks := KSStatTwo(g, e); ks > 0.02 {
		t.Fatalf("Gamma(k=1) vs exponential KS = %g", ks)
	}
}

func TestGammaPositive(t *testing.T) {
	g := Gamma{K: 0.3, Theta: 5}
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := g.Sample(r); v <= 0 {
			t.Fatalf("non-positive gamma sample %g", v)
		}
	}
}

func TestBernoulli(t *testing.T) {
	// The bernoulli keyword is shorthand for a spike of constant
	// magnitude.
	b := MustParse("bernoulli:0.25,400")
	if _, ok := b.(Spike); !ok {
		t.Fatalf("bernoulli parsed to %T, want Spike", b)
	}
	wantClose(t, "bernoulli mean", b.Mean(), 100, 1e-12)
	r := NewRNG(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch v := b.Sample(r); v {
		case 0:
		case 400:
			hits++
		default:
			t.Fatalf("bernoulli sample %g", v)
		}
	}
	wantClose(t, "bernoulli rate", float64(hits)/n, 0.25, 0.03)
}

func TestParseExtraFamilies(t *testing.T) {
	for _, tc := range []struct {
		spec string
		mean float64
	}{
		{"weibull:100,1", 100},
		{"gamma:4,25", 100},
		{"bernoulli:0.5,200", 100},
	} {
		d, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		wantClose(t, tc.spec, d.Mean(), tc.mean, 1e-9)
	}
	for _, bad := range []string{
		"weibull:0,1", "weibull:1,0", "weibull:1",
		"gamma:0,1", "gamma:1,0",
		"bernoulli:2,1", "bernoulli:-0.1,1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestExtraFamiliesDeterministic(t *testing.T) {
	for _, d := range []Distribution{
		Weibull{Lambda: 10, K: 2},
		Gamma{K: 3, Theta: 7},
		MustParse("bernoulli:0.5,9"),
	} {
		a, b := NewRNG(42), NewRNG(42)
		for i := 0; i < 200; i++ {
			if x, y := d.Sample(a), d.Sample(b); x != y {
				t.Fatalf("%s: nondeterministic at %d", d, i)
			}
		}
	}
}
