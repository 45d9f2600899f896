package report

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// validateSARIF checks a decoded SARIF log against the sarif-2.1.0
// schema requirements for every element the writer emits: required
// properties, property types, and value enumerations. It is the
// schema subset relevant to this producer, transcribed from
// https://json.schemastore.org/sarif-2.1.0.json (the schema cannot be
// fetched in a hermetic test, so its constraints are pinned here).
func validateSARIF(t *testing.T, doc map[string]any) {
	t.Helper()
	requireString := func(m map[string]any, key, ctx string) string {
		v, ok := m[key]
		if !ok {
			t.Fatalf("%s: required property %q missing", ctx, key)
		}
		s, ok := v.(string)
		if !ok {
			t.Fatalf("%s: property %q must be a string, got %T", ctx, key, v)
		}
		return s
	}
	if got := requireString(doc, "version", "log"); got != "2.1.0" {
		t.Fatalf("log.version must be the enum value \"2.1.0\", got %q", got)
	}
	runsAny, ok := doc["runs"].([]any)
	if !ok || len(runsAny) == 0 {
		t.Fatalf("log.runs must be a non-empty array, got %v", doc["runs"])
	}
	for ri, runAny := range runsAny {
		ctx := fmt.Sprintf("runs[%d]", ri)
		run, ok := runAny.(map[string]any)
		if !ok {
			t.Fatalf("%s: must be an object", ctx)
		}
		tool, ok := run["tool"].(map[string]any)
		if !ok {
			t.Fatalf("%s: required property tool missing or not an object", ctx)
		}
		driver, ok := tool["driver"].(map[string]any)
		if !ok {
			t.Fatalf("%s.tool: required property driver missing or not an object", ctx)
		}
		requireString(driver, "name", ctx+".tool.driver")
		var ruleIDs []string
		if rulesAny, ok := driver["rules"].([]any); ok {
			for i, rAny := range rulesAny {
				r, ok := rAny.(map[string]any)
				if !ok {
					t.Fatalf("%s.tool.driver.rules[%d]: must be an object", ctx, i)
				}
				ruleIDs = append(ruleIDs, requireString(r, "id", fmt.Sprintf("%s.tool.driver.rules[%d]", ctx, i)))
				if sd, ok := r["shortDescription"]; ok {
					sdm, ok := sd.(map[string]any)
					if !ok {
						t.Fatalf("rules[%d].shortDescription must be an object", i)
					}
					requireString(sdm, "text", fmt.Sprintf("rules[%d].shortDescription", i))
				}
			}
		}
		resultsAny, ok := run["results"].([]any)
		if !ok {
			t.Fatalf("%s: results must be an array (the writer always emits it)", ctx)
		}
		levels := map[string]bool{"none": true, "note": true, "warning": true, "error": true}
		kinds := map[string]bool{"inSource": true, "external": true}
		for i, resAny := range resultsAny {
			rctx := fmt.Sprintf("%s.results[%d]", ctx, i)
			res, ok := resAny.(map[string]any)
			if !ok {
				t.Fatalf("%s: must be an object", rctx)
			}
			msg, ok := res["message"].(map[string]any)
			if !ok {
				t.Fatalf("%s: required property message missing or not an object", rctx)
			}
			requireString(msg, "text", rctx+".message")
			if lv, ok := res["level"]; ok {
				if !levels[lv.(string)] {
					t.Errorf("%s.level = %q, not in the schema enum", rctx, lv)
				}
			}
			if ruleID, ok := res["ruleId"]; ok {
				idxAny, hasIdx := res["ruleIndex"]
				if hasIdx {
					idx := int(idxAny.(float64))
					if idx < 0 || idx >= len(ruleIDs) {
						t.Fatalf("%s.ruleIndex = %d out of range of %d rules", rctx, idx, len(ruleIDs))
					}
					if ruleIDs[idx] != ruleID.(string) {
						t.Errorf("%s: ruleIndex %d names %q but ruleId is %q", rctx, idx, ruleIDs[idx], ruleID)
					}
				}
			}
			if locsAny, ok := res["locations"].([]any); ok {
				for li, locAny := range locsAny {
					lctx := fmt.Sprintf("%s.locations[%d]", rctx, li)
					loc := locAny.(map[string]any)
					phys, ok := loc["physicalLocation"].(map[string]any)
					if !ok {
						continue // physicalLocation is optional in the schema
					}
					if art, ok := phys["artifactLocation"].(map[string]any); ok {
						requireString(art, "uri", lctx+".physicalLocation.artifactLocation")
					}
					if reg, ok := phys["region"].(map[string]any); ok {
						if sl, ok := reg["startLine"].(float64); ok && sl < 1 {
							t.Errorf("%s: region.startLine = %v, schema minimum is 1", lctx, sl)
						}
					}
				}
			}
			if suppsAny, ok := res["suppressions"].([]any); ok {
				for si, sAny := range suppsAny {
					s := sAny.(map[string]any)
					kind := requireString(s, "kind", fmt.Sprintf("%s.suppressions[%d]", rctx, si))
					if !kinds[kind] {
						t.Errorf("%s.suppressions[%d].kind = %q, not in the schema enum", rctx, si, kind)
					}
				}
			}
		}
	}
}

func TestSARIFConformsToSchema(t *testing.T) {
	rep := sampleLintReport()
	rep.AnalyzerDocs = []string{"determinism discipline", "float comparison discipline"}
	var b strings.Builder
	if err := rep.WriteSARIF(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("SARIF output does not parse as JSON: %v", err)
	}
	if doc["$schema"] != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %v", doc["$schema"])
	}
	validateSARIF(t, doc)
}

// TestSARIFMapping pins the producer's mapping decisions: severity to
// level, suppression provenance to suppression kind, diagnostics from
// outside the analyzer set registering rules on the fly.
func TestSARIFMapping(t *testing.T) {
	rep := &LintReport{
		Packages:  1,
		Analyzers: []string{"detreach"},
		Diagnostics: []LintDiagnostic{
			{Analyzer: "detreach", File: "a.go", Line: 1, Col: 1, Message: "gating"},
			{Analyzer: "detreach", File: "a.go", Line: 2, Col: 1, Message: "advisory", Severity: "info"},
			{Analyzer: "detreach", File: "a.go", Line: 3, Col: 1, Message: "vouched", Suppressed: true, Reason: "documented boundary"},
			{Analyzer: "directive", File: "a.go", Line: 4, Col: 1, Message: "bad directive"},
		},
		Outstanding: 2,
	}
	var b strings.Builder
	if err := rep.WriteSARIF(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct{ ID string }
				}
			}
			Results []struct {
				RuleID       string
				Level        string
				Suppressions []struct{ Kind, Justification string }
			}
		}
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	run := doc.Runs[0]
	if len(run.Results) != 4 {
		t.Fatalf("want all 4 diagnostics as results, got %d", len(run.Results))
	}
	if run.Results[0].Level != "error" || len(run.Results[0].Suppressions) != 0 {
		t.Errorf("gating finding: %+v", run.Results[0])
	}
	if run.Results[1].Level != "note" {
		t.Errorf("info advisory must map to level note: %+v", run.Results[1])
	}
	if s := run.Results[2].Suppressions; len(s) != 1 || s[0].Kind != "inSource" || s[0].Justification != "documented boundary" {
		t.Errorf("in-source suppression mapping: %+v", run.Results[2])
	}
	if got := run.Results[3].RuleID; got != "directive" {
		t.Errorf("out-of-set analyzer: ruleId = %q", got)
	}
	if n := len(run.Tool.Driver.Rules); n != 2 {
		t.Errorf("want the directive rule registered on the fly (2 rules), got %d", n)
	}
}
