package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mpgraph/internal/dist"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

const (
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps = 5
	// warmupOps run untimed before measuring, so caches and pools fill.
	warmupOps = 5
)

// tally counts attempted and failed ops. A check that belongs to the
// run rather than to one op — the set-up files, the probes — is
// charged to op 0, the op that first depends on what it verifies.
type tally struct {
	attempted, failed int
	op0Failed         bool
	errs              []string
}

func (t *tally) op(i int, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	t.op0Failed = t.op0Failed || i == 0
	t.note(fmt.Sprintf("op %d: %v", i, err))
}

func (t *tally) runCheck(err error) {
	if err == nil {
		return
	}
	if !t.op0Failed {
		t.op0Failed = true
		t.failed++
	}
	t.note(err.Error())
}

func (t *tally) note(msg string) {
	if len(t.errs) < 10 {
		t.errs = append(t.errs, msg)
	}
}

// runWorkload runs one workload in this process: the end-to-end loop,
// or with cfg.traced the traced run.
func runWorkload(cfg config, name string) (workloadResult, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(dir)
	b := newBench(name, cfg.seed, cfg.quick, dir)
	res := workloadResult{Name: name, Params: b.params(), Traced: cfg.traced}
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	var tl tally
	var vals map[string]float64
	var err error
	if cfg.traced {
		spans := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.seed))
		vals, err = runTraced(b, &tl, &res, seconds, cfg.quick, dir, spans)
	} else {
		vals, err = runEndToEnd(b, &tl, &res, seconds)
	}
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed, res.Errors = tl.attempted, tl.failed, tl.errs
	res.Metrics = metricMap(vals)
	return res, nil
}

// runEndToEnd times set-up, then runs ops back to back for the given
// time after the warm-up and reports the end-to-end metrics. Every
// timing is scaled to the nominal host speed by the calibration kernel
// timed right after it (calibrate.go). Every timed step starts from a
// collected heap, as in a fresh process, so that collections land alike
// in every run.
func runEndToEnd(b bench, tl *tally, res *workloadResult, seconds time.Duration) (map[string]float64, error) {
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop() //nolint:errcheck // the sidecar's exit status does not bear on the run

	setups := make([]float64, setupReps)
	setupKernel := make([]float64, setupReps)
	for k := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[k] = time.Since(t0).Seconds()
		if setupKernel[k], err = cal.measure(); err != nil {
			return nil, err
		}
	}
	do := func(i int) (int, time.Duration) {
		runtime.GC()
		t0 := time.Now()
		n, err := b.op(i)
		d := time.Since(t0)
		if err == nil {
			err = b.check(i)
		}
		tl.op(i, err)
		return n, d
	}
	for i := 0; i < warmupOps; i++ {
		do(i)
	}
	// The memory metric covers the measured ops: the analysis, not the
	// trace generation of set-up.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var lat, kernel []float64
	var analyses int
	start := time.Now()
	for i := warmupOps; time.Since(start) < seconds; i++ {
		n, d := do(i)
		k, err := cal.measure()
		if err != nil {
			return nil, err
		}
		lat, kernel = append(lat, ms(d)), append(kernel, k)
		analyses += n
	}
	res.Ops, res.WallS = len(lat), time.Since(start).Seconds()
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	norm := scaled(lat, kernel)
	res.Unscaled = map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      dist.Quantile(lat, 0.5),
		"op_p90_ms":      dist.Quantile(lat, 0.9),
		"analyses_per_s": float64(analyses) / (sum(lat) / 1e3),
		"kernel_ms":      median(kernel),
	}
	return map[string]float64{
		"setup_s":        median(scaled(setups, setupKernel)),
		"op_p50_ms":      dist.Quantile(norm, 0.5),
		"op_p90_ms":      dist.Quantile(norm, 0.9),
		"analyses_per_s": float64(analyses) / (sum(norm) / 1e3),
		"max_rss_mb":     rss,
	}, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runTraced rebuilds set-up and ops from layer calls with spans. Ops
// alternate untraced and traced with the same model, so each traced op
// is checked against the untraced one and the two medians give the
// tracing overhead. The layer probes follow; the spans are written to
// spansPath as trace-event JSON.
func runTraced(b bench, tl *tally, res *workloadResult, seconds time.Duration, quick bool, dir, spansPath string) (map[string]float64, error) {
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	t := newTracer()
	in, err := b.tracedSetup(t)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	for i := 0; i < warmupOps; i++ {
		_, err := b.op(i)
		if err == nil {
			err = b.check(i)
		}
		tl.op(i, err)
	}
	tl.runCheck(checkEncode(in, filepath.Join(dir, "reference")))

	var plain []float64
	start := time.Now()
	for i := warmupOps; time.Since(start) < seconds; i++ {
		runtime.GC()
		t0 := time.Now()
		_, err := b.op(i)
		plain = append(plain, ms(time.Since(t0)))
		if err == nil {
			err = b.check(i)
		}
		tl.op(i, err)
		if err == nil {
			runtime.GC()
			tl.op(i, b.tracedOp(t, i))
		}
	}
	res.Ops, res.WallS = tl.attempted-warmupOps, time.Since(start).Seconds()

	pr, err := runProbes(t, in, quick)
	tl.runCheck(err)
	if err := t.writeSpans(spansPath, res.Name); err != nil {
		return nil, err
	}
	return t.layerMetrics(pr, plain, b.eventsPerOp(), runtime.GOMAXPROCS(0)), nil
}

// checkEncode verifies that the traced set-up's two-step path — trace
// in memory, then encode — wrote exactly the files mpi.Run writes when
// it traces straight to disk.
func checkEncode(in probeInput, ref string) error {
	if err := os.MkdirAll(ref, 0o755); err != nil {
		return err
	}
	prog, err := workloads.BuildByName(in.wl, in.wopts)
	if err != nil {
		return err
	}
	if _, err := mpi.Run(mpi.Config{Machine: in.mcfg, TraceDir: ref}, prog); err != nil {
		return err
	}
	if err := sameFiles(in.dir, ref); err != nil {
		return fmt.Errorf("two-step encode: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
