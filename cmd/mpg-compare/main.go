// Command mpg-compare analyzes the same traces under several
// scenarios and prints them side by side — the platform-procurement
// question the paper's conclusion targets ("determine the best
// platform for applications of interest"):
//
//	mpg-compare -traces traces/ quiet.json desktop.json shared-node.json
//
// Each positional argument is a scenario JSON file (see
// internal/scenario); rows are ordered as given.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mpgraph/internal/cli"
	"mpgraph/internal/core"
	"mpgraph/internal/report"
	"mpgraph/internal/scenario"
	"mpgraph/internal/trace"
)

func main() {
	os.Exit(cli.ExitCode("mpg-compare", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-compare", flag.ContinueOnError)
	traces := fs.String("traces", "", "trace directory from mpg-trace (required)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *traces == "" {
		return fmt.Errorf("-traces is required")
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("at least one scenario file is required")
	}

	tbl := report.NewTable(
		fmt.Sprintf("scenario comparison over %s", *traces),
		"scenario", "max-delay", "mean-delay", "makespan-delay",
		"own-noise", "remote-noise", "msg-delta", "warnings")

	for _, path := range paths {
		model, f, err := scenario.Load(path)
		if err != nil {
			return err
		}
		name := f.Name
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), ".json")
		}
		set, closeFn, err := trace.OpenDir(*traces)
		if err != nil {
			return err
		}
		res, err := core.Analyze(set, model, core.Options{})
		closeErr := closeFn()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if closeErr != nil {
			return closeErr
		}
		// Aggregate attribution over the makespan-defining rank.
		var worst core.RankResult
		for _, rr := range res.Ranks {
			if rr.FinalDelay >= worst.FinalDelay {
				worst = rr
			}
		}
		tbl.AddRow(name, res.MaxFinalDelay, res.MeanFinalDelay, res.MakespanDelay,
			worst.Attr.OwnNoise, worst.Attr.RemoteNoise, worst.Attr.MsgDelta,
			len(res.Warnings))
	}
	if *csv {
		return tbl.CSV(os.Stdout)
	}
	return tbl.Render(os.Stdout)
}
