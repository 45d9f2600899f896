// Command mpg-lint runs the repository's domain static-analysis
// suite (internal/analysis): five analyzers — concdiscipline,
// detreach, floateq, hotpathprop, rngpurity — that prove at lint time
// the determinism, RNG-ownership, float-comparison, concurrency and
// hot-path-allocation invariants the replay equivalence suites can
// only sample at run time.
//
//	mpg-lint ./...                 # text report, exit 1 on findings
//	mpg-lint -format json ./...    # machine-readable report on stdout
//	mpg-lint -format sarif ./...   # SARIF 2.1.0 on stdout (code scanning)
//	mpg-lint -sarif-out f.sarif    # also write the SARIF log to a file
//	mpg-lint -list                 # describe the analyzers
//	mpg-lint ./internal/core       # only the findings in internal/core
//
// Every run analyzes the whole module with every analyzer; the
// package patterns (relative to the module root, default ./...) only
// choose which findings are reported, so a run over one package
// reports exactly the ./... findings in that package's files. A
// pattern outside the module root, or one that names no package, is a
// usage error.
//
// Exit codes: 0 — clean (every finding suppressed in source with a
// reason); 1 — outstanding findings; 2 — usage or load error, a type
// error included (the message names its file:line). The
// report files are always written before a findings-driven nonzero
// exit, so CI can both gate on the code and archive the report.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpgraph/internal/analysis"
	"mpgraph/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpg-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "report format on stdout: text, json, sarif")
	outPath := fs.String("out", "", "also write the JSON report to this file")
	sarifPath := fs.String("sarif-out", "", "also write the SARIF 2.1.0 report to this file")
	list := fs.Bool("list", false, "list the analyzers and exit")
	dir := fs.String("C", ".", "analyze the module enclosing this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	render, ok := map[string]func(*report.LintReport, io.Writer) error{
		"text":  (*report.LintReport).WriteText,
		"json":  (*report.LintReport).WriteJSON,
		"sarif": (*report.LintReport).WriteSARIF,
	}[*format]
	if !ok {
		fmt.Fprintf(stderr, "mpg-lint: unknown format %q (want text, json or sarif)\n", *format)
		return 2
	}
	res, err := analysis.Run(*dir, analysis.Config{Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintln(stderr, "mpg-lint:", err)
		return 2
	}

	rep := buildReport(res)
	if *outPath != "" {
		if err := writeReportFile(*outPath, rep.WriteJSON); err != nil {
			fmt.Fprintln(stderr, "mpg-lint:", err)
			return 2
		}
	}
	if *sarifPath != "" {
		if err := writeReportFile(*sarifPath, rep.WriteSARIF); err != nil {
			fmt.Fprintln(stderr, "mpg-lint:", err)
			return 2
		}
	}
	if err := render(rep, stdout); err != nil {
		fmt.Fprintln(stderr, "mpg-lint:", err)
		return 2
	}
	if rep.Outstanding > 0 {
		return 1
	}
	return 0
}

func writeReportFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildReport(res *analysis.Result) *report.LintReport {
	rep := &report.LintReport{Packages: res.Packages}
	for _, a := range analysis.All() {
		rep.Analyzers = append(rep.Analyzers, a.Name)
		rep.AnalyzerDocs = append(rep.AnalyzerDocs, a.Doc)
	}
	for _, d := range res.Diagnostics {
		rep.Diagnostics = append(rep.Diagnostics, report.LintDiagnostic{
			Analyzer:   d.Analyzer,
			File:       d.File,
			Line:       d.Line,
			Col:        d.Col,
			Func:       d.Func,
			Message:    d.Message,
			Severity:   d.Severity,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
	}
	rep.Outstanding = len(res.Outstanding())
	return rep
}
