// Command mpg-dot renders a trace directory's message-passing graph in
// Graphviz DOT format — the paper's Fig. 5 artifact:
//
//	mpg-dot -traces traces/ > graph.dot && dot -Tpdf graph.dot -o graph.pdf
//
// Intended for small traces; the node count is 2× the event count.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpgraph/internal/cli"
	"mpgraph/internal/core"
	"mpgraph/internal/trace"
)

func main() {
	os.Exit(cli.ExitCode("mpg-dot", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-dot", flag.ContinueOnError)
	traces := fs.String("traces", "", "trace directory from mpg-trace (required)")
	title := fs.String("title", "message-passing graph", "graph title")
	maxEvents := fs.Int64("max-events", 10_000, "refuse traces with more events than this (0 = no limit)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *traces == "" {
		return fmt.Errorf("-traces is required")
	}
	set, closeFn, err := trace.OpenDir(*traces)
	if err != nil {
		return err
	}
	defer closeFn() //nolint:errcheck

	g, err := core.BuildGraph(set)
	if err != nil {
		return err
	}
	if events := int64(g.NumNodes() / 2); *maxEvents > 0 && events > *maxEvents { // two subevents per record
		return fmt.Errorf("trace has %d events (> -max-events %d); DOT output would be unreadable",
			events, *maxEvents)
	}
	fmt.Print(g.DOT(*title))
	return nil
}
