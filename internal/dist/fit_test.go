package dist

import (
	"strings"
	"testing"
)

func TestFitExponentialRecoversMean(t *testing.T) {
	truth := Exponential{MeanValue: 321}
	data := SampleN(truth, NewRNG(1), 50000)
	got, err := FitExponential(data)
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "fitted mean", got.MeanValue, 321, 0.02)
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Fatal("expected error on empty sample")
	}
	if _, err := FitExponential([]float64{1, -2}); err == nil {
		t.Fatal("expected error on negative sample")
	}
}

func TestKSStatisticIdentical(t *testing.T) {
	data := SampleN(Uniform{Low: 0, High: 1}, NewRNG(5), 1000)
	if ks := KSStatTwo(data, data); ks != 0 {
		t.Fatalf("KS of identical samples = %g", ks)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{100, 200, 300}
	if ks := KSStatTwo(a, b); ks != 1 {
		t.Fatalf("KS of disjoint samples = %g, want 1", ks)
	}
}

func TestKSStatisticSameFamily(t *testing.T) {
	a := SampleN(Exponential{MeanValue: 10}, NewRNG(6), 20000)
	b := SampleN(Exponential{MeanValue: 10}, NewRNG(7), 20000)
	if ks := KSStatTwo(a, b); ks > 0.03 {
		t.Fatalf("KS between same-family samples = %g, want small", ks)
	}
	c := SampleN(Exponential{MeanValue: 30}, NewRNG(8), 20000)
	if ks := KSStatTwo(a, c); ks < 0.2 {
		t.Fatalf("KS between different means = %g, want large", ks)
	}
}

func TestParseRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		spec string
		mean float64
	}{
		{"constant:250", 250},
		{"const: 42", 42},
		{"zero", 0},
		{"uniform:0,500", 250},
		{"exponential:250", 250},
		{"exp:100", 100},
		{"normal:250,50", 250},
		{"gaussian:10,1", 10},
		{"pareto:100,3", 150},
		{"spike:0.5,constant:100", 50},
		{"shifted:100,constant:11", 111},
		{"scaled:2,constant:21", 42},
		{"truncated:0,1000,constant:500", 500},
		{"spike:0.1,shifted:10,exponential:5", 0.1 * (10 + 5)},
	} {
		d, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		wantClose(t, tc.spec, d.Mean(), tc.mean, 1e-9)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"bogus:1",
		"constant:abc",
		"uniform:1",
		"uniform:5,1",
		"exponential:-3",
		"normal:0,-1",
		"lognormal:0,-1",
		"pareto:0,1",
		"pareto:1,0",
		"spike:2,constant:1",
		"spike:0.5",
		"truncated:1,0,constant:0",
		"truncated:1,2",
		"scaled:x,constant:1",
		"exponential:NaN",
		"constant:Inf",
		"constant:-inf",
		"uniform:0,+Inf",
		"bernoulli:NaN,1",
		"spike:0.5,exponential:Infinity",
		"truncated:0,inf,constant:1",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", spec)
		} else if !strings.Contains(err.Error(), "dist:") {
			t.Errorf("Parse(%q) error %q lacks package prefix", spec, err)
		}
	}
}

func TestMustParsePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("nope")
}

func TestParsedDistributionSamples(t *testing.T) {
	d := MustParse("truncated:0,100,normal:50,20")
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 0 || v > 100 {
			t.Fatalf("parsed truncated sample %g out of range", v)
		}
	}
}
