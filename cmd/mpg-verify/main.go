// Command mpg-verify is the standing correctness harness: it checks
// the graph-traversal engine against the DES oracle on randomly
// generated scenarios, runs the metamorphic property suite, and lints
// traces and built graphs.
//
// Randomized campaign (the default mode):
//
//	mpg-verify -seed 1 -n 200 -repro out/
//
// Re-run one scenario or a reproducer written by a failing campaign:
//
//	mpg-verify -scenario out/repro-17.json
//
// Lint a trace directory (structure + built graph):
//
//	mpg-verify -traces traces/
//
// All modes exit nonzero when anything fails; -json switches the
// report to machine-readable output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mpgraph/internal/cli"
	"mpgraph/internal/core"
	"mpgraph/internal/report"
	"mpgraph/internal/trace"
	"mpgraph/internal/verify"
)

func main() {
	os.Exit(cli.ExitCode("mpg-verify", run(os.Args[1:], os.Stdout), os.Stderr))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpg-verify", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "campaign base seed (scenario i derives from TaskSeed(seed, i))")
	n := fs.Int("n", 100, "number of random scenarios to generate and check")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shrinkBudget := fs.Int("shrink-budget", 0, "max re-checks while minimizing a failing scenario (0 = default)")
	reproDir := fs.String("repro", "", "write reproducer JSON files for failing scenarios to this directory")
	scenarioPath := fs.String("scenario", "", "re-check one scenario or reproducer JSON instead of a campaign")
	tracesDir := fs.String("traces", "", "lint a trace directory instead of running a campaign")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	var of cli.ObsvFlags
	of.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	switch {
	case *tracesDir != "":
		return runLint(stdout, *tracesDir, *jsonOut)
	case *scenarioPath != "":
		return runScenario(stdout, *scenarioPath, *jsonOut)
	default:
		return runCampaign(stdout, verify.CampaignOptions{
			Seed:         *seed,
			N:            *n,
			Workers:      *workers,
			ShrinkBudget: *shrinkBudget,
			ReproDir:     *reproDir,
			Metrics:      of.Registry(),
		}, *jsonOut, &of)
	}
}

func runCampaign(stdout io.Writer, opts verify.CampaignOptions, jsonOut bool, of *cli.ObsvFlags) error {
	rep, err := verify.Campaign(opts)
	if err != nil {
		return err
	}
	if jsonOut {
		if err := writeJSON(stdout, rep); err != nil {
			return err
		}
	} else if err := report.VerifyCampaign(stdout, rep); err != nil {
		return err
	}
	if err := of.Flush(); err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("%d of %d scenarios failed", rep.Failed, rep.Checked)
	}
	return nil
}

// runScenario re-checks a single case from a scenario JSON or a
// reproducer file written by a failing campaign.
func runScenario(stdout io.Writer, path string, jsonOut bool) error {
	sc, err := verify.LoadScenario(path)
	if err != nil {
		rep, rerr := verify.LoadReproducer(path)
		if rerr != nil {
			return fmt.Errorf("%s is neither a scenario (%v) nor a reproducer (%v)", path, err, rerr)
		}
		sc = rep.Scenario
	}
	failures := verify.CheckScenario(sc)
	if jsonOut {
		if err := writeJSON(stdout, map[string]interface{}{
			"scenario": sc,
			"failures": failures,
		}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "scenario %s: %d failures\n", sc.Name(), len(failures))
		for _, f := range failures {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("scenario %s failed %d checks", sc.Name(), len(failures))
	}
	return nil
}

// runLint structurally checks a trace directory and, when the traces
// are clean enough to build, the constructed graph.
func runLint(stdout io.Writer, dir string, jsonOut bool) error {
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		return err
	}
	defer closeFn()
	findings, err := verify.LintSet(set)
	if err != nil {
		return err
	}
	if len(findings) == 0 {
		// Traces are structurally sound: build the graph and lint it
		// too (negative edges, cycles).
		set2, closeFn2, err := trace.OpenDir(dir)
		if err != nil {
			return err
		}
		defer closeFn2()
		g, err := core.BuildGraph(set2)
		if err != nil {
			return fmt.Errorf("graph build: %w", err)
		}
		findings = append(findings, verify.LintGraph(g)...)
	}
	if jsonOut {
		if err := writeJSON(stdout, map[string]interface{}{
			"dir":      dir,
			"findings": findings,
		}); err != nil {
			return err
		}
	} else if err := report.LintFindings(stdout, findings); err != nil {
		return err
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d lint findings", len(findings))
	}
	return nil
}

func writeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
