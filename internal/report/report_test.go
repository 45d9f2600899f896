package report

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("demo", "name", "value", "note")
	tbl.AddRow("alpha", 1.5, "x")
	tbl.AddRow("b", 42, "longer note")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"## demo", "name", "alpha", "1.5", "42", "longer note", "-----"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q in:\n%s", frag, out)
		}
	}
	// Columns aligned: the header and first row start "value" at the
	// same offset.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines: %q", out)
	}
	hIdx := strings.Index(lines[1], "value")
	rIdx := strings.Index(lines[3], "1.5")
	if hIdx != rIdx {
		t.Errorf("columns misaligned: %d vs %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRow("x,y", `he said "hi"`)
	tbl.AddRow(1, 2.25)
	var sb strings.Builder
	if err := tbl.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n1,2.25\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestCellFormatting(t *testing.T) {
	for _, tc := range []struct {
		in   interface{}
		want string
	}{
		{1.0, "1"},
		{1.5, "1.5"},
		{int64(7), "7"},
		{"s", "s"},
		{float32(2), "2"},
		{true, "true"},
	} {
		if got := Cell(tc.in); got != tc.want {
			t.Errorf("Cell(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestAnalysisOutput(t *testing.T) {
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: 4, Seed: 1}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(set, &core.Model{MsgLatency: dist.Constant{C: 100}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Analysis(&sb, res, 0); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"ranks=4", "final delay", "per-rank", "per-region"} {
		if !strings.Contains(out, frag) {
			t.Errorf("analysis output missing %q:\n%s", frag, out)
		}
	}
}

func TestAnalysisTruncatesRanks(t *testing.T) {
	res := &core.Result{NRanks: 10, Ranks: make([]core.RankResult, 10),
		Regions: map[core.RegionKey]*core.RegionStats{}}
	var sb strings.Builder
	if err := Analysis(&sb, res, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "7 more ranks") {
		t.Fatalf("truncation note missing:\n%s", sb.String())
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	path := t.TempDir() + "/history.jsonl"
	res := &core.Result{NRanks: 4, Events: 100, MaxFinalDelay: 42,
		Regions: map[core.RegionKey]*core.RegionStats{}}
	e1 := NewHistoryEntry("run1", "traces/", map[string]string{"latency": "constant:100"}, res)
	if err := AppendHistory(path, e1); err != nil {
		t.Fatal(err)
	}
	e2 := NewHistoryEntry("run2", "traces/", nil, res)
	if err := AppendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	var got []HistoryEntry
	for dec := json.NewDecoder(f); dec.More(); {
		var e HistoryEntry
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].Label != "run1" || got[0].MaxDelay != 42 || got[0].Model["latency"] != "constant:100" {
		t.Fatalf("entry 0 = %+v", got[0])
	}
	if got[1].Label != "run2" {
		t.Fatalf("entry 1 = %+v", got[1])
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("demo", "a", "b")
	tbl.AddRow("x|y", 1)
	var sb strings.Builder
	if err := tbl.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"**demo**", "| a | b |", "| --- | --- |", `x\|y`} {
		if !strings.Contains(out, frag) {
			t.Errorf("markdown missing %q:\n%s", frag, out)
		}
	}
}
