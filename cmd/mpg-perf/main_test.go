package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for mpg-perf when the program
// re-executes itself as a per-workload child or a calibration sidecar.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-calibrate") {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			os.Stderr.WriteString("mpg-perf: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to the metric
// tables -compare reads its bounds from, and to the workload list.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's table:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table:\n%+v\n%+v", b.PerLayer, perLayer)
	}
}

// resultLine is the JSON line printed for each workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quickRun runs every workload at the -quick size and returns the
// printed output and its result lines.
func quickRun(t *testing.T, workdir string, args ...string) (string, []resultLine) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-quick", "-seconds", "0.05", "-seed", "3", "-workdir", workdir}, args...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var lines []resultLine
	for _, l := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		lines = append(lines, r)
	}
	if len(lines) != len(workloadNames) {
		t.Fatalf("%d result lines for %d workloads:\n%s", len(lines), len(workloadNames), out.String())
	}
	return out.String(), lines
}

// checkMetrics asserts that every listed metric is printed with its
// unit, no unlisted one is, and no op failed.
func checkMetrics(t *testing.T, out string, lines []resultLine, defs []metricDef) {
	t.Helper()
	for i, r := range lines {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%t, %d of %d ops failed:\n%s", workloadNames[i], r.Correct, r.Failed, r.Attempted, out)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s prints %d metrics, BENCHMARK.json lists %d", workloadNames[i], len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %q", workloadNames[i], d.Name, m, d.Unit)
			}
			if !strings.Contains(out, d.Name+" ") {
				t.Errorf("metric %s not printed by name", d.Name)
			}
		}
	}
}

func TestQuickEndToEnd(t *testing.T) {
	out, lines := quickRun(t, t.TempDir())
	checkMetrics(t, out, lines, loadBenchmarkJSON(t).EndToEnd)
}

// TestQuickTraced runs the traced workloads twice with one seed: every
// per-layer metric is printed, the counts repeat exactly, and the
// spans nest.
func TestQuickTraced(t *testing.T) {
	defs := loadBenchmarkJSON(t).PerLayer
	dirs := []string{t.TempDir(), t.TempDir()}
	var runs [][]resultLine
	for _, dir := range dirs {
		out, lines := quickRun(t, dir, "-trace", "1")
		checkMetrics(t, out, lines, defs)
		runs = append(runs, lines)
	}
	for i := range workloadNames {
		for _, name := range []string{"mpi.events_per_op", "timeline.export_bytes", "dist.samples_per_replay", "core.window_high_water"} {
			a, b := runs[0][i].Metrics[name].Value, runs[1][i].Metrics[name].Value
			if a != b || a <= 0 {
				t.Errorf("%s: %s = %g then %g, want one positive count", workloadNames[i], name, a, b)
			}
		}
		checkSpans(t, filepath.Join(dirs[0], "spans-"+workloadNames[i]+"-seed3.json"))
	}
}

// checkSpans asserts that every span lies inside its parent and has a
// non-negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				ID     int   `json:"id"`
				Parent int   `json:"parent"`
				Start  int64 `json:"start_ns"`
				End    int64 `json:"end_ns"`
				Self   int64 `json:"self_ns"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	type iv struct{ start, end int64 }
	byID := map[int]iv{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			byID[e.Args.ID] = iv{e.Args.Start, e.Args.End}
			names[e.Name] = true
		}
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		a := e.Args
		if a.Self < 0 || a.End < a.Start {
			t.Errorf("%s: span %d (%s) lasts %d ns with self time %d ns", path, a.ID, e.Name, a.End-a.Start, a.Self)
		}
		if a.Parent < 0 {
			continue
		}
		p, ok := byID[a.Parent]
		if !ok || a.Start < p.start || a.End > p.end {
			t.Errorf("%s: span %d (%s) [%d, %d] lies outside its parent %d %+v", path, a.ID, e.Name, a.Start, a.End, a.Parent, p)
		}
	}
	for _, n := range []string{"setup", "op", "probe", "mpi.trace_gen", "trace.encode", "trace.decode", "core.analyze", "core.compile", "core.replay", "timeline.export", "report"} {
		if !names[n] {
			t.Errorf("%s: no %s span", path, n)
		}
	}
}

// TestScaled pins the host-speed scaling: each timing is divided by the
// median kernel time of its neighbourhood, so one jittery kernel sample
// does not move it, while a sustained slowdown does.
func TestScaled(t *testing.T) {
	// The host runs at nominal speed, then at half speed.
	var times, kernel []float64
	for i := 0; i < 40; i++ {
		if i < 20 {
			times, kernel = append(times, 10), append(kernel, kernelNominalMS)
		} else {
			times, kernel = append(times, 20), append(kernel, 2*kernelNominalMS)
		}
	}
	kernel[5] = 3 * kernelNominalMS
	for i, v := range scaled(times, kernel) {
		if (i <= 20-kernelWindow-1 || i >= 20+kernelWindow) && v != 10 {
			t.Errorf("scaled timing %d = %g, want 10", i, v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs; a single run,
	// which Python rejects, is its own quartiles.
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 1, 3, 7, 2, 9, 4, 8, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64, p50 float64, sampler string, iters int) string {
		rf := runFile{
			Provenance: provenance{Seed: seed, SamplerVersion: sampler},
			Workloads: []workloadResult{{
				Name:   "sweep-tokenring",
				Params: params{Workload: "tokenring", Iters: iters},
				Metrics: map[string]metricValue{
					"op_p50_ms":      {Value: p50, Unit: "ms"},
					"analyses_per_s": {Value: 8000 / p50, Unit: "1/s"},
				},
			}},
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var base, same, slow []string
	for k, v := range []float64{40, 41, 39, 40.5} {
		seed := uint64(k)
		base = append(base, write("base"+string(rune('a'+k)), seed, v, "v1", 10))
		same = append(same, write("same"+string(rune('a'+k)), seed, v*1.01, "v1", 10))
		slow = append(slow, write("slow"+string(rune('a'+k)), seed, v*1.3, "v1", 10))
	}
	join := func(paths []string) string { return strings.Join(paths, ",") }

	var out bytes.Buffer
	if err := runCompare([]string{join(base), join(same)}, &out); err != nil {
		t.Fatalf("unchanged runs: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") || strings.Contains(out.String(), "regressed") {
		t.Errorf("unchanged runs:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare([]string{join(base), join(slow)}, &out); !errors.Is(err, errRegressed) {
		t.Fatalf("30%% slower runs: err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("30%% slower runs:\n%s", out.String())
	}
	out.Reset()
	if err := runCompare([]string{join(slow), filepath.Join(dir, "base*")}, &out); err != nil || !strings.Contains(out.String(), "improved") {
		t.Errorf("30%% faster runs: err = %v\n%s", err, out.String())
	}
	if err := runCompare([]string{join(base), write("other-sampler", 9, 40, "v2", 10)}, &out); err == nil || !strings.Contains(err.Error(), "sampler") {
		t.Errorf("different sampler versions: err = %v", err)
	}
	if err := runCompare([]string{join(base), write("other-params", 9, 40, "v1", 20)}, &out); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Errorf("different workload parameters: err = %v", err)
	}
}

func TestVerdictUnresolved(t *testing.T) {
	d := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	// Wide, overlapping spreads: no call either way.
	if _, v := verdict(d, []float64{10, 20, 15, 12}, []float64{11, 21, 16, 13}); v != "unresolved" {
		t.Errorf("overlapping wide spreads: %s", v)
	}
	// Just as wide, but every new run is slower than every base run.
	if _, v := verdict(d, []float64{10, 13, 12, 11}, []float64{20, 26, 24, 22}); v != "regressed" {
		t.Errorf("separated wide spreads: %s", v)
	}
}
