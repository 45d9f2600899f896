package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// replayConfig parameterizes the replay-throughput benchmark.
type replayConfig struct {
	workload  string
	ranks     int
	iters     int
	collEvery int
	trials    int
	seed      uint64
	out       string
}

// pathStats is one engine path's measured replay throughput.
type pathStats struct {
	NsPerReplay     float64 `json:"ns_per_replay"`
	ReplaysPerSec   float64 `json:"replays_per_sec"`
	AllocsPerReplay float64 `json:"allocs_per_replay"`
}

// replayReport is the BENCH_replay.json schema: the benchmark's
// configuration, the one-time compile cost, and per-path throughput
// for the streaming analyzer (serial and parallel) against the
// compiled replay engine.
type replayReport struct {
	Workload   string `json:"workload"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	CollEvery  int    `json:"coll_every"`
	Trials     int    `json:"trials"`
	// Workers is the parallel-path pool size (GOMAXPROCS).
	Workers           int       `json:"workers"`
	Events            int64     `json:"events"`
	CompileNs         int64     `json:"compile_ns"`
	StreamingSerial   pathStats `json:"streaming_serial"`
	StreamingParallel pathStats `json:"streaming_parallel"`
	Compiled          pathStats `json:"compiled"`
	// Speedup is streaming-serial ns/replay over compiled ns/replay.
	Speedup float64 `json:"speedup_vs_streaming_serial"`
}

// replayModel builds the per-trial perturbation model. The model mixes
// all three sampled delta classes so the benchmark pays representative
// RNG and kernel costs.
func replayModel(seed uint64, trial int) *core.Model {
	return &core.Model{
		Seed:       parallel.TaskSeed(seed, trial),
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
}

// measure times trials sequential calls of fn and attributes the
// heap-allocation delta evenly across them. The GC pass beforehand
// keeps Mallocs deltas comparable between paths.
func measure(trials int, fn func(trial int) error) (pathStats, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < trials; i++ {
		if err := fn(i); err != nil {
			return pathStats{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(trials)
	return pathStats{
		NsPerReplay:     ns,
		ReplaysPerSec:   1e9 / ns,
		AllocsPerReplay: float64(after.Mallocs-before.Mallocs) / float64(trials),
	}, nil
}

// measureOnce is measure for a single fan-out call covering all trials.
func measureOnce(trials int, fn func() error) (pathStats, error) {
	return measure(1, func(int) error { return fn() })
}

// replayGate replays one anchored reference model through the
// streaming analyzer over snap and through compiled, and fails unless
// the two Results are deeply equal, critical paths included.
func replayGate(snap *trace.Snapshot, compiled *core.Compiled, seed uint64) error {
	model := replayModel(seed, 0)
	model.Propagation = core.PropagationAnchored
	want, err := core.Analyze(snap.Set(), model, core.Options{RecordCritPath: true})
	if err != nil {
		return err
	}
	got, err := core.ReplayCompiled(compiled, model, core.Options{RecordCritPath: true})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("compiled replay diverged from streaming analyze (makespan %g vs %g)",
			got.MakespanDelay, want.MakespanDelay)
	}
	return nil
}

// replaySnapshot traces the benchmark workload once and snapshots it.
func replaySnapshot(cfg replayConfig) (*trace.Snapshot, error) {
	prog, err := workloads.BuildByName(cfg.workload, workloads.Options{
		Iterations: cfg.iters, CollEvery: cfg.collEvery,
	})
	if err != nil {
		return nil, err
	}
	res, err := mpi.Run(mpi.Config{Machine: machine.Config{
		NRanks: cfg.ranks, Seed: cfg.seed,
	}}, prog)
	if err != nil {
		return nil, err
	}
	set, err := res.TraceSet()
	if err != nil {
		return nil, err
	}
	return trace.NewSnapshot(set)
}

func runReplay(cfg replayConfig) error {
	snap, err := replaySnapshot(cfg)
	if err != nil {
		return err
	}

	compileStart := time.Now()
	compiled, err := core.Compile(snap.Set(), core.Options{})
	if err != nil {
		return err
	}
	compileNs := time.Since(compileStart).Nanoseconds()

	// Equivalence gate: before timing anything, both engines must
	// agree byte for byte on the same model. A divergence here fails
	// the benchmark (and the CI job running it).
	if err := replayGate(snap, compiled, cfg.seed); err != nil {
		return err
	}

	streamOne := func(trial int) error {
		_, err := core.Analyze(snap.Set(), replayModel(cfg.seed, trial), core.Options{})
		return err
	}
	serial, err := measure(cfg.trials, streamOne)
	if err != nil {
		return err
	}
	par, err := measureOnce(cfg.trials, func() error {
		_, err := parallel.Map(cfg.trials, parallel.Options{},
			func(i int) (struct{}, error) { return struct{}{}, streamOne(i) })
		return err
	})
	if err != nil {
		return err
	}
	par.NsPerReplay /= float64(cfg.trials)
	par.ReplaysPerSec = 1e9 / par.NsPerReplay
	par.AllocsPerReplay /= float64(cfg.trials)
	comp, err := measure(cfg.trials, func(trial int) error {
		_, err := core.ReplayCompiled(compiled, replayModel(cfg.seed, trial), core.Options{})
		return err
	})
	if err != nil {
		return err
	}

	workers := runtime.GOMAXPROCS(0)
	rep := replayReport{
		Workload:          cfg.workload,
		Ranks:             cfg.ranks,
		Iterations:        cfg.iters,
		CollEvery:         cfg.collEvery,
		Trials:            cfg.trials,
		Workers:           workers,
		Events:            snap.Events(),
		CompileNs:         compileNs,
		StreamingSerial:   serial,
		StreamingParallel: par,
		Compiled:          comp,
		Speedup:           serial.NsPerReplay / comp.NsPerReplay,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("replay benchmark: %s ranks=%d events=%d trials=%d\n",
		cfg.workload, cfg.ranks, rep.Events, cfg.trials)
	fmt.Printf("compile once:       %.3f ms\n", float64(compileNs)/1e6)
	fmt.Printf("streaming serial:   %.3f ms/replay (%.0f allocs)\n",
		serial.NsPerReplay/1e6, serial.AllocsPerReplay)
	fmt.Printf("streaming parallel: %.3f ms/replay (workers=%d)\n",
		par.NsPerReplay/1e6, workers)
	fmt.Printf("compiled replay:    %.3f ms/replay (%.0f allocs)\n",
		comp.NsPerReplay/1e6, comp.AllocsPerReplay)
	fmt.Printf("speedup (compiled vs streaming serial): %.2fx\n", rep.Speedup)
	fmt.Printf("report written to %s\n", cfg.out)
	return nil
}
