// Command mpg-dump converts binary per-rank trace files to the
// human-readable text format (and back), for debugging and for
// hand-authoring fixtures:
//
//	mpg-dump -traces traces/ -rank 0          # dump one rank to stdout
//	mpg-dump -traces traces/ -all -out txt/   # dump every rank to files
//	mpg-dump -from-text fixture.txt -out traces/  # text -> binary
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mpgraph/internal/cli"
	"mpgraph/internal/trace"
)

func main() {
	os.Exit(cli.ExitCode("mpg-dump", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-dump", flag.ContinueOnError)
	traces := fs.String("traces", "", "trace directory to dump")
	rank := fs.Int("rank", 0, "rank to dump (with -traces)")
	all := fs.Bool("all", false, "dump every rank (requires -out)")
	fromText := fs.String("from-text", "", "convert a text trace to a binary rank file (requires -out)")
	out := fs.String("out", "", "output directory")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	switch {
	case *fromText != "":
		if *out == "" {
			return fmt.Errorf("-from-text requires -out")
		}
		f, err := os.Open(*fromText)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck
		h, recs, err := trace.ReadText(f)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		w, closeFn, err := trace.CreateFileWriter(*out, h, 4096)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := w.Record(r); err != nil {
				closeFn() //nolint:errcheck
				return err
			}
		}
		if err := closeFn(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d records)\n",
			filepath.Join(*out, trace.FileName(h.Rank)), len(recs))
		return nil

	case *traces != "":
		set, closeFn, err := trace.OpenDir(*traces)
		if err != nil {
			return err
		}
		defer closeFn() //nolint:errcheck
		if *all {
			if *out == "" {
				return fmt.Errorf("-all requires -out")
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			for r := 0; r < set.NRanks(); r++ {
				path := filepath.Join(*out, fmt.Sprintf("rank-%04d.txt", r))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := trace.DumpText(f, set.Rank(r)); err != nil {
					f.Close() //nolint:errcheck
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			fmt.Printf("dumped %d ranks to %s\n", set.NRanks(), *out)
			return nil
		}
		if *rank < 0 || *rank >= set.NRanks() {
			return fmt.Errorf("rank %d outside [0,%d)", *rank, set.NRanks())
		}
		return trace.DumpText(os.Stdout, set.Rank(*rank))

	default:
		return fmt.Errorf("one of -traces or -from-text is required")
	}
}
