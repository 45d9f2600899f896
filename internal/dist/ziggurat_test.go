package dist

import (
	"math"
	"testing"
)

// Differential tests for the ziggurat fast path: the fast samplers are
// compared against the retained pre-ziggurat reference samplers
// (Exact()) with the two-sample Kolmogorov–Smirnov statistic, the rare
// slow branches are stress-tested directly.

const (
	zigTestN     = 40000
	zigTestAlpha = 1e-4
)

// TestZigguratTableInvariants checks the structural properties the
// fast path relies on: strictly decreasing layer edges, x₁ = R,
// x₂₅₆ = 0, and densities increasing toward the mode.
func TestZigguratTableInvariants(t *testing.T) {
	check := func(name string, x, f *[zigLayers + 1]float64, w *[zigLayers]float64, r float64) {
		if x[1] != r {
			t.Errorf("%s: x[1] = %v, want tail cut %v", name, x[1], r)
		}
		if x[zigLayers] != 0 {
			t.Errorf("%s: x[%d] = %v, want 0", name, zigLayers, x[zigLayers])
		}
		for i := 0; i < zigLayers; i++ {
			if !(x[i] > x[i+1]) {
				t.Fatalf("%s: layer edges not strictly decreasing at %d: %v <= %v",
					name, i, x[i], x[i+1])
			}
			if f[i] > f[i+1] {
				t.Fatalf("%s: density not monotone at %d: f(x[%d])=%v > f(x[%d])=%v",
					name, i, i, f[i], i+1, f[i+1])
			}
			if w[i] != x[i]*inv53 {
				t.Errorf("%s: w[%d] not premultiplied edge", name, i)
			}
		}
		if f[zigLayers] != 1 {
			t.Errorf("%s: f(0) = %v, want 1", name, f[zigLayers])
		}
	}
	check("exp", &zigExpX, &zigExpF, &zigExpW, zigExpR)
	check("norm", &zigNormX, &zigNormF, &zigNormW, zigNormR)
}

// TestZigguratVsExactKS is the differential acceptance gate: the
// ziggurat stream and the exact reference stream must be statistically
// indistinguishable under the two-sample KS test at fixed seeds.
func TestZigguratVsExactKS(t *testing.T) {
	cases := []struct {
		name string
		d    Distribution
	}{
		{"exponential", Exponential{MeanValue: 300}},
		{"normal", Normal{Mu: -2, Sigma: 7}},
		{"lognormal", LogNormal{Mu: 0.5, Sigma: 0.8}},
		{"shifted-exponential", Shifted{Offset: 40, Inner: Exponential{MeanValue: 500}}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			exact := Exact(tc.d)
			rf := NewRNG(statSeed("zigdiff-fast-" + tc.name))
			re := NewRNG(statSeed("zigdiff-exact-" + tc.name))
			fast := make([]float64, zigTestN)
			ref := make([]float64, zigTestN)
			for i := range fast {
				fast[i] = tc.d.Sample(rf)
				ref[i] = exact.Sample(re)
			}
			d := KSStatTwo(fast, ref)
			if crit := KSCriticalTwo(zigTestAlpha, zigTestN, zigTestN); d > crit {
				t.Errorf("%s vs %s: two-sample KS %.5f exceeds critical %.5f",
					tc.d, exact, d, crit)
			}
		})
	}
}

// TestZigguratTailBranch stress-tests the rare slow paths directly:
// conditioned on exceeding the tail cut R, the exponential excess must
// again be Exp(1) (memorylessness) and the normal tail must follow the
// conditional normal law. Drawing until enough tail samples accumulate
// exercises stdExpSlow/stdNormSlow thousands of times, including the
// wedge-rejection redraw loops.
func TestZigguratTailBranch(t *testing.T) {
	t.Run("exponential", func(t *testing.T) {
		r := NewRNG(statSeed("zigtail-exp"))
		const want = 3000
		tail := make([]float64, 0, want)
		var draws int
		for len(tail) < want {
			draws++
			if draws > 1<<28 {
				t.Fatal("tail draws did not accumulate; slow path unreachable?")
			}
			if v := stdExp(r); v > zigExpR {
				tail = append(tail, v-zigExpR)
			}
		}
		// P(X > R) = e^{-R} ≈ 4.5e-4: the tail must actually be rare.
		frac := float64(want) / float64(draws)
		if frac > 10*math.Exp(-zigExpR) {
			t.Errorf("tail frequency %.2g far above analytic e^-R = %.2g", frac, math.Exp(-zigExpR))
		}
		d := KSStat(tail, func(x float64) float64 {
			if x < 0 {
				return 0
			}
			return 1 - math.Exp(-x)
		})
		if crit := KSCriticalOne(zigTestAlpha, want); d > crit {
			t.Errorf("exponential tail excess: KS %.5f exceeds critical %.5f", d, crit)
		}
	})
	t.Run("normal", func(t *testing.T) {
		r := NewRNG(statSeed("zigtail-norm"))
		const want = 2000
		tail := make([]float64, 0, want)
		var draws, neg int
		for len(tail) < want {
			draws++
			if draws > 1<<28 {
				t.Fatal("tail draws did not accumulate; slow path unreachable?")
			}
			v := stdNorm(r)
			if v < 0 {
				neg++
				v = -v
			}
			if v > zigNormR {
				tail = append(tail, v)
			}
		}
		// Sign bit must stay unbiased.
		if f := float64(neg) / float64(draws); f < 0.45 || f > 0.55 {
			t.Errorf("sign bias: %.3f of draws negative", f)
		}
		// Conditional CDF beyond R: (Φ(x) − Φ(R)) / (1 − Φ(R)).
		phiR := phi(zigNormR)
		d := KSStat(tail, func(x float64) float64 {
			if x < zigNormR {
				return 0
			}
			return (phi(x) - phiR) / (1 - phiR)
		})
		if crit := KSCriticalOne(zigTestAlpha, want); d > crit {
			t.Errorf("normal tail: KS %.5f exceeds critical %.5f", d, crit)
		}
	})
}

// TestZigguratDeterminism pins the per-seed contract for the fast
// samplers and their RNG bit consumption: equal seeds give identical
// streams, and a fast-path draw consumes exactly one Uint64.
func TestZigguratDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 4096; i++ {
		if va, vb := stdExp(a), stdExp(b); va != vb {
			t.Fatalf("stdExp diverged at draw %d: %v vs %v", i, va, vb)
		}
		if va, vb := stdNorm(a), stdNorm(b); va != vb {
			t.Fatalf("stdNorm diverged at draw %d: %v vs %v", i, va, vb)
		}
	}

	// Fast-path draws consume exactly one Uint64: replay a draw's
	// consumption manually and require the generators to stay in sync.
	r1, r2 := NewRNG(7), NewRNG(7)
	fastPath := 0
	for i := 0; i < 4096; i++ {
		u := r2.Uint64()
		li := u & 0xff
		x := float64(u>>11) * zigExpW[li]
		v := stdExp(r1)
		if x < zigExpX[li+1] {
			fastPath++
			if v != x {
				t.Fatalf("fast-path value mismatch at draw %d", i)
			}
		} else {
			// Slow path: resynchronize by replaying the remainder on r2.
			if got := stdExpSlow(r2, li, x); got != v {
				t.Fatalf("slow-path value mismatch at draw %d", i)
			}
		}
	}
	if frac := float64(fastPath) / 4096; frac < 0.97 {
		t.Errorf("fast-path rate %.3f; ziggurat should accept ≥ ~98.9%% in one compare", frac)
	}
}

// TestExactConstruction checks the Exact() mapping: changed samplers
// get reference wrappers, wrappers recurse, and untouched samplers
// pass through unchanged.
func TestExactConstruction(t *testing.T) {
	if _, ok := Exact(Exponential{MeanValue: 1}).(exactExponential); !ok {
		t.Error("Exact(Exponential) did not return the reference sampler")
	}
	if _, ok := Exact(Normal{Mu: 0, Sigma: 1}).(exactNormal); !ok {
		t.Error("Exact(Normal) did not return the reference sampler")
	}
	if _, ok := Exact(LogNormal{Mu: 0, Sigma: 1}).(exactLogNormal); !ok {
		t.Error("Exact(LogNormal) did not return the reference sampler")
	}
	sh := Exact(Shifted{Offset: 5, Inner: Exponential{MeanValue: 2}}).(Shifted)
	if _, ok := sh.Inner.(exactExponential); !ok {
		t.Error("Exact(Shifted{Exponential}) did not recurse into Inner")
	}
	sp := Exact(Spike{P: 0.5, Magnitude: Normal{Mu: 0, Sigma: 1}}).(Spike)
	if _, ok := sp.Magnitude.(exactNormal); !ok {
		t.Error("Exact(Spike{Normal}) did not recurse into Magnitude")
	}
	sc := Exact(Spike{P: 0.5, Magnitude: Constant{C: 3}}).(Spike)
	if _, ok := sc.Magnitude.(Constant); !ok {
		t.Error("Exact(Spike{Constant}) rewrote an untouched magnitude")
	}
	u := Uniform{Low: 0, High: 1}
	if got := Exact(u); got != Distribution(u) {
		t.Error("Exact(Uniform) should pass through unchanged")
	}

	// Exact's mean must match the original's: same law, old algorithm.
	for _, d := range []Distribution{
		Exponential{MeanValue: 7},
		Normal{Mu: 2, Sigma: 3},
		LogNormal{Mu: 0.3, Sigma: 0.6},
	} {
		if Exact(d).Mean() != d.Mean() {
			t.Errorf("Exact(%s) changed the mean", d)
		}
	}
}

// TestExactExponentialStream pins the reference exponential stream to
// the pre-ziggurat algorithm, bit for bit: -mean·ln(Float64Open).
func TestExactExponentialStream(t *testing.T) {
	d := Exact(Exponential{MeanValue: 250})
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 256; i++ {
		want := -250 * math.Log(b.Float64Open())
		if got := d.Sample(a); got != want {
			t.Fatalf("draw %d: exact sampler %v != inverse-CDF reference %v", i, got, want)
		}
	}
}

// TestZigguratMomentPrecision drives a long fixed-seed run through the
// fast samplers and requires the first two moments to converge to the
// analytic values within tight CLT bands — a higher-resolution
// complement to the KS gate that is sensitive to table construction
// errors too small to move the empirical CDF visibly.
func TestZigguratMomentPrecision(t *testing.T) {
	const n = 2_000_000
	r := NewRNG(statSeed("zig-moments"))
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := stdExp(r)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if diff := math.Abs(mean - 1); diff > 6.0/math.Sqrt(n) {
		t.Errorf("stdExp mean %.6f off 1 by %.2g (tolerance %.2g)", mean, diff, 6.0/math.Sqrt(n))
	}
	// E[X²] = 2 for Exp(1); Var(X²) = E[X⁴] − 4 = 24 − 4 = 20.
	m2 := sum2 / n
	if diff := math.Abs(m2 - 2); diff > 6*math.Sqrt(20.0/n) {
		t.Errorf("stdExp second moment %.6f off 2 by %.2g", m2, diff)
	}

	sum, sum2 = 0, 0
	for i := 0; i < n; i++ {
		v := stdNorm(r)
		sum += v
		sum2 += v * v
	}
	mean = sum / n
	if diff := math.Abs(mean); diff > 6.0/math.Sqrt(n) {
		t.Errorf("stdNorm mean %.6f off 0 by %.2g", mean, diff)
	}
	// Var(X²) = E[X⁴] − 1 = 2 for N(0,1).
	m2 = sum2 / n
	if diff := math.Abs(m2 - 1); diff > 6*math.Sqrt(2.0/n) {
		t.Errorf("stdNorm variance %.6f off 1 by %.2g", m2, diff)
	}
}
