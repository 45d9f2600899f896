// Command mpg-bench runs the microbenchmark suite (FTQ OS-noise probe,
// ping-pong latency, bandwidth) against a machine model and writes the
// resulting platform signature, the paper's Section 5 parameterization
// stage:
//
//	mpg-bench -ranks 2 -machine-noise exponential:300 -out noisy.json
//
// The signature feeds mpg-analyze -signature.
//
// With -replay the command instead benchmarks the Monte Carlo replay
// engines — the streaming analyzer (serial and parallel) against the
// compile-once/replay-many path — and writes a machine-readable
// BENCH_replay.json report. The run fails if the two engines disagree
// on a reference model, so CI can use it as an equivalence gate:
//
//	mpg-bench -replay -replay-ranks 64 -out BENCH_replay.json
//
// With -sampler it benchmarks the distribution samplers themselves —
// the ziggurat fast paths against the retained exact reference
// algorithms — behind an in-band KS gate, and writes
// BENCH_sampler.json:
//
//	mpg-bench -sampler -out BENCH_sampler.json
//
// With -lint it benchmarks the static-analysis suite itself against
// this repository — load, call-graph construction, and each analyzer
// timed separately, with the call-graph edge mix recorded as a
// precision trend line — and writes BENCH_lint.json. The run fails if
// the suite reports outstanding findings:
//
//	mpg-bench -lint -out BENCH_lint.json
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/cli"
	"mpgraph/internal/microbench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpg-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-bench", flag.ContinueOnError)
	var mf cli.MachineFlags
	mf.Register(fs)
	out := fs.String("out", "", "output signature JSON path (required)")
	label := fs.String("label", "platform", "platform label stored in the signature")
	quantum := fs.Int64("ftq-quantum", 10_000, "FTQ work quantum in cycles")
	ftqSamples := fs.Int("ftq-samples", 2000, "FTQ sample count")
	ppSamples := fs.Int("pingpong-samples", 1000, "ping-pong sample count")
	ppBytes := fs.Int64("pingpong-bytes", 8, "ping-pong message size")
	bwBytes := fs.Int64("bandwidth-bytes", 1<<20, "bandwidth probe message size")
	bwSamples := fs.Int("bandwidth-samples", 50, "bandwidth probe sample count")
	replay := fs.Bool("replay", false, "benchmark the replay engines instead of probing the platform")
	lint := fs.Bool("lint", false, "benchmark the static-analysis suite against this repository and write BENCH_lint.json")
	lintTrials := fs.Int("lint-trials", 3, "analysis runs per lint benchmark")
	sampler := fs.Bool("sampler", false, "benchmark the distribution samplers (ziggurat vs exact reference) and write BENCH_sampler.json")
	samplerDraws := fs.Int("sampler-draws", 2_000_000, "draws per sampler benchmark case")
	replayWorkload := fs.String("replay-workload", "stencil1d", "workload for the replay benchmark")
	replayRanks := fs.Int("replay-ranks", 64, "world size for the replay benchmark")
	replayIters := fs.Int("replay-iters", 10, "workload iterations for the replay benchmark")
	replayCollEvery := fs.Int("replay-collevery", 4, "collective cadence for the replay benchmark")
	replayTrials := fs.Int("replay-trials", 100, "Monte Carlo replays per engine path")
	replaySeed := fs.Uint64("replay-seed", 1, "trace and model seed for the replay benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *lint {
		path := *out
		if path == "" {
			path = "BENCH_lint.json"
		}
		return runLint(lintConfig{trials: *lintTrials, out: path})
	}
	if *sampler {
		path := *out
		if path == "" {
			path = "BENCH_sampler.json"
		}
		return runSampler(samplerConfig{draws: *samplerDraws, out: path})
	}
	if *replay {
		path := *out
		if path == "" {
			path = "BENCH_replay.json"
		}
		return runReplay(replayConfig{
			workload:  *replayWorkload,
			ranks:     *replayRanks,
			iters:     *replayIters,
			collEvery: *replayCollEvery,
			trials:    *replayTrials,
			seed:      *replaySeed,
			out:       path,
		})
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	mcfg, err := mf.Build()
	if err != nil {
		return err
	}
	sig, err := microbench.Measure(mcfg, microbench.Config{
		Quantum:          *quantum,
		FTQSamples:       *ftqSamples,
		PingPongSamples:  *ppSamples,
		PingPongBytes:    *ppBytes,
		BandwidthBytes:   *bwBytes,
		BandwidthSamples: *bwSamples,
	}, *label)
	if err != nil {
		return err
	}
	if err := sig.Save(*out); err != nil {
		return err
	}
	fmt.Printf("platform %q\n", sig.Platform)
	fmt.Printf("FTQ noise/quantum: %s\n", sig.NoiseSummary())
	fmt.Printf("one-way latency:   %s\n", sig.LatencySummary())
	fmt.Printf("bandwidth:         %.3f bytes/cycle\n", sig.BytesPerCycle)
	fmt.Printf("signature written to %s\n", *out)
	return nil
}
