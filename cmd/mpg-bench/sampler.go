package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mpgraph/internal/dist"
)

// Sampler benchmark (-sampler): measures the distribution samplers
// themselves — the ziggurat fast paths against the retained exact
// reference algorithms — and writes a machine-readable
// BENCH_sampler.json report.
//
// Before timing anything the run passes an in-band gate, so CI can use
// it as a sampler-correctness check as well as a benchmark: a
// two-sample Kolmogorov–Smirnov test between the ziggurat and exact
// reference streams.

// samplerConfig parameterizes the sampler benchmark.
type samplerConfig struct {
	draws int
	out   string
}

// samplerPoint is one distribution's measured draw throughput.
type samplerPoint struct {
	Dist        string  `json:"dist"`
	NsPerDraw   float64 `json:"ns_per_draw"`
	DrawsPerSec float64 `json:"draws_per_sec"`
}

// samplerReport is the BENCH_sampler.json schema.
type samplerReport struct {
	SamplerVersion string `json:"sampler_version"`
	Draws          int    `json:"draws_per_case"`
	// Scalar times Distribution.Sample for the hot families; Exact
	// times the retained pre-ziggurat reference samplers over the same
	// laws.
	Scalar []samplerPoint `json:"scalar"`
	Exact  []samplerPoint `json:"exact_reference"`
	// ExpSpeedup / NormSpeedup compare the ziggurat scalar draw against
	// the exact reference for the two rewritten families.
	ExpSpeedup  float64 `json:"exponential_speedup_vs_exact"`
	NormSpeedup float64 `json:"normal_speedup_vs_exact"`
}

// benchSink defeats dead-code elimination of the timing loops.
var benchSink float64

// timeScalar measures one distribution's scalar draw cost.
func timeScalar(d dist.Distribution, n int, seed uint64) samplerPoint {
	r := dist.NewRNG(seed)
	var sink float64
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += d.Sample(r)
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(n)
	benchSink += sink
	return samplerPoint{Dist: d.String(), NsPerDraw: ns, DrawsPerSec: 1e9 / ns}
}

// samplerGates runs the in-band correctness gate: ziggurat-vs-exact
// two-sample KS for the rewritten families. Any failure aborts the
// benchmark (and the CI job running it).
func samplerGates() error {
	const n = 40000
	const alpha = 1e-4
	for _, d := range []dist.Distribution{
		dist.Exponential{MeanValue: 300},
		dist.Normal{Mu: 0, Sigma: 1},
		dist.LogNormal{Mu: 1, Sigma: 0.5},
	} {
		exact := dist.Exact(d)
		rf, re := dist.NewRNG(101), dist.NewRNG(202)
		fast := make([]float64, n)
		ref := make([]float64, n)
		for i := 0; i < n; i++ {
			fast[i] = d.Sample(rf)
			ref[i] = exact.Sample(re)
		}
		stat := dist.KSStatTwo(fast, ref)
		if crit := dist.KSCriticalTwo(alpha, n, n); stat > crit {
			return fmt.Errorf("sampler gate: %s diverged from %s (two-sample KS %.5f > critical %.5f)",
				d, exact, stat, crit)
		}
	}
	return nil
}

func runSampler(cfg samplerConfig) error {
	if err := samplerGates(); err != nil {
		return err
	}
	n := cfg.draws

	scalarCases := []dist.Distribution{
		dist.Exponential{MeanValue: 300},
		dist.Normal{Mu: 0, Sigma: 1},
		dist.LogNormal{Mu: 1, Sigma: 0.5},
		dist.Uniform{Low: 0, High: 1},
	}
	exactCases := []dist.Distribution{
		dist.Exact(dist.Exponential{MeanValue: 300}),
		dist.Exact(dist.Normal{Mu: 0, Sigma: 1}),
		dist.Exact(dist.LogNormal{Mu: 1, Sigma: 0.5}),
	}
	rep := samplerReport{
		SamplerVersion: dist.SamplerVersion,
		Draws:          n,
	}
	for i, d := range scalarCases {
		rep.Scalar = append(rep.Scalar, timeScalar(d, n, uint64(10+i)))
	}
	for i, d := range exactCases {
		rep.Exact = append(rep.Exact, timeScalar(d, n, uint64(20+i)))
	}
	rep.ExpSpeedup = rep.Exact[0].NsPerDraw / rep.Scalar[0].NsPerDraw
	rep.NormSpeedup = rep.Exact[1].NsPerDraw / rep.Scalar[1].NsPerDraw

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("sampler benchmark: %s, %d draws/case\n", rep.SamplerVersion, n)
	for _, p := range rep.Scalar {
		fmt.Printf("scalar %-28s %6.2f ns/draw\n", p.Dist, p.NsPerDraw)
	}
	for _, p := range rep.Exact {
		fmt.Printf("exact  %-28s %6.2f ns/draw\n", p.Dist, p.NsPerDraw)
	}
	fmt.Printf("exponential speedup vs exact: %.2fx\n", rep.ExpSpeedup)
	fmt.Printf("normal speedup vs exact:      %.2fx\n", rep.NormSpeedup)
	fmt.Printf("report written to %s\n", cfg.out)
	return nil
}
