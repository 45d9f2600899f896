// Command mpg-experiments regenerates the paper's evaluation: every
// figure, the Section 6.1 sweep, and the DESIGN.md ablations, each
// with a measured-vs-expected verdict. This is the one-command
// reproduction of EXPERIMENTS.md:
//
//	mpg-experiments                 # everything, paper-faithful sizes
//	mpg-experiments -quick          # reduced sizes (seconds)
//	mpg-experiments -run sec6.1     # one experiment
//	mpg-experiments -run fig5 -dot fig5.dot
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpgraph/internal/cli"
	"mpgraph/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpg-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mpg-experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "run reduced problem sizes")
	seed := fs.Uint64("seed", 2006, "experiment seed")
	workers := fs.Int("workers", 0, "replay worker pool size (0 = GOMAXPROCS); output is identical for any value")
	only := fs.String("run", "", fmt.Sprintf("run a single experiment (%s)",
		strings.Join(experiments.IDs(), ", ")))
	dotOut := fs.String("dot", "", "write fig5's DOT artifact to this path")
	csv := fs.Bool("csv", false, "emit tables as CSV")
	md := fs.Bool("md", false, "emit tables as markdown (for EXPERIMENTS.md)")
	var of cli.ObsvFlags
	of.Register(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}
	of.Start(os.Stderr)
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *workers,
		Metrics: of.Registry()}

	var list []experiments.Experiment
	if *only != "" {
		e, ok := experiments.Get(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", *only,
				strings.Join(experiments.IDs(), ", "))
		}
		list = []experiments.Experiment{e}
	} else {
		list = experiments.All()
	}

	failed := 0
	for _, e := range list {
		fmt.Fprintf(w, "=== %s — %s\n", e.ID, e.Title)
		out, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch {
		case *csv:
			err = out.Table.CSV(w)
		case *md:
			err = out.Table.Markdown(w)
		default:
			err = out.Table.Render(w)
		}
		if err != nil {
			return err
		}
		status := "PASS"
		if !out.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s: %s\n\n", status, out.Verdict)
		if e.ID == "fig5" && *dotOut != "" {
			if err := os.WriteFile(*dotOut, []byte(out.Extra), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "fig5 DOT written to %s\n\n", *dotOut)
		}
	}
	if err := of.Flush(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape check", failed)
	}
	return nil
}
