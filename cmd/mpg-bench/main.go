// Command mpg-bench runs the microbenchmark suite (FTQ OS-noise probe,
// ping-pong latency, bandwidth) against a machine model and writes the
// resulting platform signature, the paper's Section 5 parameterization
// stage:
//
//	mpg-bench -ranks 2 -machine-noise exponential:300 -out noisy.json
//
// The signature feeds mpg-analyze -signature. Every probe size and
// sample count must be positive: the signature records exactly what
// was asked for.
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ftq-quantum", *quantum},
		{"ftq-samples", int64(*ftqSamples)},
		{"pingpong-samples", int64(*ppSamples)},
		{"pingpong-bytes", *ppBytes},
		{"bandwidth-bytes", *bwBytes},
		{"bandwidth-samples", int64(*bwSamples)},
	} {
		if f.v <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", f.name, f.v)
		}
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
