// Command mpg-trace runs a workload on the simulated cluster and
// writes per-rank trace files, the first stage of the analysis
// pipeline:
//
//	mpg-trace -workload tokenring -ranks 128 -iters 10 -out traces/
//
// The machine model (noise, latency, bandwidth, clock distortion) is
// fully configurable; see -help.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/cli"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

func main() {
	os.Exit(cli.ExitCode("mpg-trace", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-trace", flag.ContinueOnError)
	var mf cli.MachineFlags
	var wf cli.WorkloadFlags
	mf.Register(fs)
	wf.Register(fs)
	out := fs.String("out", "", "output directory for per-rank trace files (required)")
	bufCap := fs.Int("trace-buffer", 4096, "PMPI trace buffer capacity in records")
	list := fs.Bool("list", false, "list the registered workloads and exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *list {
		for _, name := range workloads.Names() {
			w, _ := workloads.Get(name)
			fmt.Printf("%-14s %s\n", name, w.Description)
		}
		return nil
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	mcfg, err := mf.Build()
	if err != nil {
		return err
	}
	prog, err := workloads.BuildByName(wf.Name, wf.Options())
	if err != nil {
		return err
	}
	res, err := mpi.Run(mpi.Config{
		Machine:        mcfg,
		TraceDir:       *out,
		TraceBufferCap: *bufCap,
		TraceMeta: map[string]string{
			"workload": wf.Name,
			"tool":     "mpg-trace",
		},
	}, prog)
	if err != nil {
		return err
	}
	fmt.Printf("workload=%s ranks=%d makespan=%d cycles\n", wf.Name, mcfg.NRanks, res.Makespan)
	fmt.Printf("events=%d messages=%d bytes=%d collectives=%d\n",
		res.Stats.Events, res.Stats.Messages, res.Stats.BytesSent, res.Stats.Collectives)
	fmt.Printf("traces written to %s\n", *out)
	return nil
}
