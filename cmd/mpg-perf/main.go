// Command mpg-perf is the repository's end-to-end benchmark. It times
// what an analyst waits for — a what-if analysis of a stored trace, a
// Monte Carlo sweep, a Perfetto timeline export, the paper's §6.1
// token-ring sweep — and, with -trace 1, splits the same operations
// into the layers that do the work (trace generation, the trace codec,
// the streaming analyzer, compile, compiled replay, the worker pool,
// timeline export and the text reports).
//
//	mpg-perf -seed 1                  # all four workloads, end-to-end metrics
//	mpg-perf -seed 1 -trace 1         # the same workloads, per-layer metrics
//	mpg-perf -workload sweep-tokenring -seed 7 -seconds 20
//	mpg-perf -compare 'base/*.json' 'new/*.json'
//
// Each workload runs in its own child process, a closed loop with one
// client: the next operation starts when the previous one returns.
// Every operation's output is checked. The last line printed for each
// workload is one JSON object with the keys correct, attempted, failed
// and metrics; a results file with the run's provenance is written
// under -workdir. See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mpgraph/internal/dist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpg-perf:", err)
		os.Exit(1)
	}
}

// config is one invocation's settings, shared by the parent and the
// per-workload child processes.
type config struct {
	workloads []string
	seed      uint64
	seconds   float64
	traced    bool
	quick     bool
	workdir   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mpg-perf", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed from which every workload derives its machine and model seeds")
	seconds := fs.Float64("seconds", 25, "measured seconds per workload")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and a span file")
	quick := fs.Bool("quick", false, "tiny workload sizes, for tests and smoke runs")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "mpg-perf"), "directory for trace files, results and span files")
	compare := fs.Bool("compare", false, "compare two sets of results files given as arguments: BASE NEW (each a comma-separated list of files or globs)")
	child := fs.Bool("child", false, "run one workload in this process and print its result as JSON (used by the parent process)")
	calibrate := fs.Bool("calibrate", false, "serve the host-speed calibration kernel on stdin and stdout (used by each workload process)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *calibrate {
		return serveCalibration(os.Stdin, stdout)
	}
	if *compare {
		return runCompare(fs.Args(), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		traced:  *traceMode == 1,
		quick:   *quick,
		workdir: *workdir,
	}
	if *workload == "all" {
		cfg.workloads = workloadNames
	} else {
		if !knownWorkload(*workload) {
			return fmt.Errorf("unknown -workload %q (want %s, or all)", *workload, strings.Join(workloadNames, ", "))
		}
		cfg.workloads = []string{*workload}
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if *child {
		res, err := runWorkload(cfg, cfg.workloads[0])
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}
	return runParent(cfg, stdout)
}

// runParent runs every selected workload in its own child process,
// prints each one's metrics, and writes the results file.
func runParent(cfg config, stdout io.Writer) error {
	rf := runFile{Provenance: newProvenance(cfg)}
	for _, name := range cfg.workloads {
		res, err := runChild(cfg, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := printResult(stdout, res); err != nil {
			return err
		}
		rf.Workloads = append(rf.Workloads, res)
	}
	label := "all"
	if len(cfg.workloads) == 1 {
		label = cfg.workloads[0]
	}
	mode := ""
	if cfg.traced {
		mode = "-traced"
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("results-%s-seed%d%s-%s.json",
		label, cfg.seed, mode, time.Now().Format("20060102T150405.000000000")))
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "mpg-perf: results written to", path)
	return nil
}

// runChild re-executes this program as `-child` for one workload.
func runChild(cfg config, name string) (workloadResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return workloadResult{}, err
	}
	args := []string{"-child", "-workload", name,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-workdir", cfg.workdir,
		fmt.Sprintf("-quick=%t", cfg.quick)}
	if cfg.traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return workloadResult{}, fmt.Errorf("child process: %w", err)
	}
	var res workloadResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return workloadResult{}, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// printResult prints one workload's metrics, one per line with its
// unit, followed by the result as one JSON line.
func printResult(w io.Writer, res workloadResult) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "== %s: %d ops in %.2f s; %d of %d attempted ops failed\n",
		res.Name, res.Ops, res.WallS, res.Failed, res.Attempted)
	if k, ok := res.Unscaled["kernel_ms"]; ok {
		fmt.Fprintf(bw, "   timings scaled to a host where the calibration kernel takes %g ms; here it took %.3g ms\n", kernelNominalMS, k)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(bw, "   error: %s\n", e)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(bw, "%-38s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// base median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the analyzer sees, per workload. Each
// bound is three times the widest run-to-run spread measured over three
// sets of ten seeds, capped at 0.25 (README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.23},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "analyses_per_s", Unit: "1/s", Better: "higher", Bound: 0.23},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.22},
}

// perLayer lists the traced run's metrics, grouped by layer.
var perLayer = []metricDef{
	{Name: "mpi.trace_gen_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "mpi.trace_gen_share", Unit: "fraction", Better: "lower"},
	{Name: "mpi.trace_gen_alloc_bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "mpi.events_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.encode_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "trace.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "trace.decode_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.decode_share", Unit: "fraction", Better: "lower"},
	{Name: "core.analyze_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "core.analyze_allocs_per_event", Unit: "allocs/event", Better: "lower"},
	{Name: "core.analyze_share", Unit: "fraction", Better: "lower"},
	{Name: "core.window_high_water", Unit: "count", Better: "lower"},
	{Name: "core.analyze_scaling_1024_over_64", Unit: "ratio", Better: "lower"},
	{Name: "core.compile_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "core.compile_over_analyze", Unit: "ratio", Better: "lower"},
	{Name: "core.compile_share", Unit: "fraction", Better: "lower"},
	{Name: "core.replay_ns_per_replay", Unit: "ns/replay", Better: "lower"},
	{Name: "core.replay_allocs_per_replay", Unit: "allocs/replay", Better: "lower"},
	{Name: "core.replay_pool_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "core.replay_share", Unit: "fraction", Better: "lower"},
	{Name: "dist.samples_per_replay", Unit: "count", Better: "lower"},
	{Name: "parallel.pool_utilization", Unit: "fraction", Better: "higher"},
	{Name: "timeline.record_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "timeline.check_ms", Unit: "ms", Better: "lower"},
	{Name: "timeline.export_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "timeline.export_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "timeline.export_bytes", Unit: "count", Better: "lower"},
	{Name: "timeline.export_share", Unit: "fraction", Better: "lower"},
	{Name: "report.ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.unattributed_share", Unit: "fraction", Better: "lower"},
	{Name: "bench.engine_timer_gap_pct", Unit: "%", Better: "lower"},
}

// unitOf returns a metric's unit from the tables above.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("mpg-perf: unlisted metric " + name)
}

// metricValue is one measured metric as printed and stored.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricMap attaches units to measured values.
func metricMap(vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(vals))
	for name, v := range vals {
		out[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	return out
}

// workloadResult is one workload's run, as a child reports it and as
// the results file stores it.
type workloadResult struct {
	Name      string                 `json:"name"`
	Params    params                 `json:"params"`
	Traced    bool                   `json:"traced"`
	Ops       int                    `json:"ops"`
	WallS     float64                `json:"wall_s"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Unscaled holds the end-to-end timings before host-speed scaling,
	// and the median calibration-kernel time they were scaled by.
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
}

// runFile is the results file of one invocation.
type runFile struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

// provenance records what produced a results file: the host, the
// build, and the random-stream version the samples came from.
type provenance struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	CPUModel       string  `json:"cpu_model,omitempty"`
	GoVersion      string  `json:"go_version"`
	VCSRevision    string  `json:"vcs_revision,omitempty"`
	VCSModified    string  `json:"vcs_modified,omitempty"`
	SamplerVersion string  `json:"sampler_version"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Traced         bool    `json:"traced"`
	Quick          bool    `json:"quick"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		SamplerVersion: dist.SamplerVersion,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Traced:         cfg.traced,
		Quick:          cfg.quick,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo; empty where
// the file is unreadable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
