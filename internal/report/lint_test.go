package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func sampleLintReport() *LintReport {
	return &LintReport{
		Packages:  3,
		Analyzers: []string{"detreach", "floateq"},
		Diagnostics: []LintDiagnostic{
			{Analyzer: "floateq", File: "internal/core/x.go", Line: 10, Col: 4, Func: "cmp", Message: "exact comparison"},
			{Analyzer: "detreach", File: "internal/core/y.go", Line: 7, Col: 2, Message: "map iteration",
				Suppressed: true, Reason: "order-insensitive"},
			{Analyzer: "floateq", File: "internal/core/w.go", Line: 5, Col: 2, Message: "consider an epsilon", Severity: "info"},
		},
		Outstanding: 1,
	}
}

func TestLintReportText(t *testing.T) {
	var b strings.Builder
	if err := sampleLintReport().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "internal/core/x.go:10:4: floateq: exact comparison") {
		t.Errorf("gating finding missing from text output:\n%s", out)
	}
	if strings.Contains(out, "map iteration") {
		t.Errorf("suppressed findings must not be listed as gating:\n%s", out)
	}
	if !strings.Contains(out, "internal/core/w.go:5:2: floateq: info: consider an epsilon") {
		t.Errorf("info advisory must be listed with the info tag:\n%s", out)
	}
	if !strings.Contains(out, "3 packages, 1 outstanding, 1 info, 1 suppressed\n") {
		t.Errorf("summary line wrong:\n%s", out)
	}
}

func TestLintReportJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := sampleLintReport().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got LintReport
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if got.Outstanding != 1 || len(got.Diagnostics) != 3 || got.Packages != 3 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if !got.Diagnostics[1].Suppressed || got.Diagnostics[1].Reason == "" {
		t.Errorf("suppression metadata lost: %+v", got.Diagnostics[1])
	}
}
