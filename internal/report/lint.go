package report

import (
	"encoding/json"
	"fmt"
	"io"
)

// LintDiagnostic is one static-analysis finding as rendered by
// mpg-lint. It mirrors analysis.Diagnostic without importing it, so
// the report layer stays independent of the analysis framework.
type LintDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	// Func is the enclosing function of the finding ("" at file
	// scope).
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
	// Severity is "" for gating findings and "info" for advisories
	// that never gate.
	Severity string `json:"severity,omitempty"`

	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// LintReport is the full outcome of one mpg-lint run.
type LintReport struct {
	// Packages is the number of packages analyzed.
	Packages int `json:"packages"`
	// Analyzers lists the analyzers that ran.
	Analyzers []string `json:"analyzers"`
	// AnalyzerDocs carries each analyzer's one-line doc, index-aligned
	// with Analyzers; the SARIF writer renders them as rule
	// descriptions. Omitted from the JSON report to keep it stable.
	AnalyzerDocs []string `json:"-"`
	// Diagnostics holds every finding, including suppressed ones
	// (marked as such).
	Diagnostics []LintDiagnostic `json:"diagnostics"`
	// Outstanding counts the gating findings: neither suppressed
	// nor info-severity. The process exit code is derived from it.
	Outstanding int `json:"outstanding"`
}

// WriteJSON renders the report as indented JSON.
func (r *LintReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as file:line:col lines — gating
// findings bare, advisories tagged "info:" — then a one-line summary.
func (r *LintReport) WriteText(w io.Writer) error {
	var suppressed, info int
	for _, d := range r.Diagnostics {
		switch {
		case d.Suppressed:
			suppressed++
		case d.Severity == "info":
			info++
			if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: info: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintf(w, "mpg-lint: %d packages, %d outstanding, %d info, %d suppressed\n",
		r.Packages, r.Outstanding, info, suppressed)
	return err
}
