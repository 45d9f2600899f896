package report

import (
	"encoding/json"
	"io"
)

// SARIF 2.1.0 rendering of a lint report, for code-scanning UIs
// (GitHub code scanning ingests this format directly). The writer
// emits the minimal conforming document: one run, one rule per
// analyzer, one result per diagnostic.
//
// Mapping decisions:
//   - gating findings are level "error" (they fail the build);
//   - info advisories are level "note";
//   - findings suppressed by an //mpg:lint-ignore directive carry a
//     suppression of kind "inSource" with the directive's reason as
//     justification.
//
// Suppressed results are included rather than dropped so a scanning
// UI shows the audit trail the text report prints as counts.

const (
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription *sarifMessage `json:"shortDescription,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	RuleIndex    int                `json:"ruleIndex"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// WriteSARIF renders the report as a SARIF 2.1.0 log.
func (r *LintReport) WriteSARIF(w io.Writer) error {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifDriver{
			Name:  "mpg-lint",
			Rules: []sarifRule{},
		}},
		Results: []sarifResult{},
	}
	ruleIndex := map[string]int{}
	for i, name := range r.Analyzers {
		rule := sarifRule{ID: name}
		if i < len(r.AnalyzerDocs) && r.AnalyzerDocs[i] != "" {
			rule.ShortDescription = &sarifMessage{Text: r.AnalyzerDocs[i]}
		}
		ruleIndex[name] = len(run.Tool.Driver.Rules)
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, rule)
	}
	for _, d := range r.Diagnostics {
		idx, ok := ruleIndex[d.Analyzer]
		if !ok {
			// A diagnostic from outside the configured analyzer set
			// (e.g. directive validation): register its rule on the fly
			// so every result still points at a rule.
			idx = len(run.Tool.Driver.Rules)
			ruleIndex[d.Analyzer] = idx
			run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{ID: d.Analyzer})
		}
		level := "error"
		if d.Severity == "info" {
			level = "note"
		}
		res := sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     level,
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: d.File},
				Region:           sarifRegion{StartLine: max(d.Line, 1), StartColumn: d.Col},
			}}},
		}
		if d.Suppressed {
			res.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: d.Reason}}
		}
		run.Results = append(run.Results, res)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{Schema: sarifSchema, Version: sarifVersion, Runs: []sarifRun{run}})
}
