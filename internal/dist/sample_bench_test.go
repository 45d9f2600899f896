package dist

import "testing"

// sampleSink defeats dead-code elimination of the draw loops.
var sampleSink float64

// BenchmarkSample is the per-draw cost of the families the replay hot
// path samples most, and of the exact reference samplers the ziggurat
// fast paths replaced (the exact/ cases), so the speedup over them can
// be read side by side.
func BenchmarkSample(b *testing.B) {
	exp := Exponential{MeanValue: 300}
	norm := Normal{Mu: 0, Sigma: 1}
	logn := LogNormal{Mu: 1, Sigma: 0.5}
	for _, tc := range []struct {
		name string
		d    Distribution
	}{
		{"exponential", exp},
		{"normal", norm},
		{"lognormal", logn},
		{"uniform", Uniform{Low: 0, High: 1}},
		{"exact/exponential", Exact(exp)},
		{"exact/normal", Exact(norm)},
		{"exact/lognormal", Exact(logn)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := NewRNG(10)
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += tc.d.Sample(r)
			}
			sampleSink += sink
		})
	}
}
