// Package cli provides the shared flag groups of the command-line
// tools: machine-model flags, perturbation-model flags, and workload
// flags, each registering on a flag.FlagSet and building the
// corresponding configuration. Parse and ExitCode give the tools one
// exit status for help, flag errors and failed runs.
package cli

import (
	"flag"
	"fmt"
	"strings"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/workloads"
)

// MachineFlags collects the simulated platform parameters.
type MachineFlags struct {
	Ranks         int
	Seed          uint64
	Noise         string
	Quantum       int64
	Latency       string
	Bandwidth     float64
	SendOverhead  int64
	RecvOverhead  int64
	EagerLimit    int64
	NICContention bool
	Topology      string
	ClockOffset   string
	ClockDrift    string
}

// Register adds the machine flags to fs.
func (m *MachineFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&m.Ranks, "ranks", 8, "number of simulated ranks")
	fs.Uint64Var(&m.Seed, "seed", 1, "machine randomness seed")
	fs.StringVar(&m.Noise, "machine-noise", "", "per-op OS noise distribution (e.g. exponential:200)")
	fs.Int64Var(&m.Quantum, "machine-quantum", 0, "compute-noise sampling quantum in cycles (0 = per call)")
	fs.StringVar(&m.Latency, "machine-latency", "", "message latency distribution (default constant:1000)")
	fs.Float64Var(&m.Bandwidth, "machine-bandwidth", 1, "link bandwidth in bytes/cycle")
	fs.Int64Var(&m.SendOverhead, "send-overhead", 100, "send call overhead in cycles")
	fs.Int64Var(&m.RecvOverhead, "recv-overhead", 100, "receive call overhead in cycles")
	fs.Int64Var(&m.EagerLimit, "eager-limit", 0, "eager send threshold in bytes (0 = rendezvous)")
	fs.BoolVar(&m.NICContention, "nic-contention", false, "serialize message injection per NIC")
	fs.StringVar(&m.Topology, "topology", "full", "interconnect topology: full|ring|mesh2d|hypercube (latency scales with hops)")
	fs.StringVar(&m.ClockOffset, "clock-offset", "", "per-rank clock offset distribution (cycles)")
	fs.StringVar(&m.ClockDrift, "clock-drift", "", "per-rank clock drift distribution (ppm)")
}

// Build resolves the flags into a machine configuration.
func (m *MachineFlags) Build() (machine.Config, error) {
	cfg := machine.Config{
		NRanks:         m.Ranks,
		Seed:           m.Seed,
		ComputeQuantum: m.Quantum,
		BytesPerCycle:  m.Bandwidth,
		SendOverhead:   m.SendOverhead,
		RecvOverhead:   m.RecvOverhead,
		EagerLimit:     m.EagerLimit,
		NICContention:  m.NICContention,
	}
	var err error
	if cfg.Topology, err = machine.ParseTopology(m.Topology); err != nil {
		return cfg, fmt.Errorf("-topology: %w", err)
	}
	if cfg.Noise, err = optDist(m.Noise); err != nil {
		return cfg, fmt.Errorf("-machine-noise: %w", err)
	}
	if cfg.Latency, err = optDist(m.Latency); err != nil {
		return cfg, fmt.Errorf("-machine-latency: %w", err)
	}
	if cfg.ClockOffset, err = optDist(m.ClockOffset); err != nil {
		return cfg, fmt.Errorf("-clock-offset: %w", err)
	}
	if cfg.ClockDriftPPM, err = optDist(m.ClockDrift); err != nil {
		return cfg, fmt.Errorf("-clock-drift: %w", err)
	}
	return cfg, nil
}

// ModelFlags collects the perturbation-model parameters (paper §5).
type ModelFlags struct {
	Seed          uint64
	OSNoise       string
	Quantum       int64
	Latency       string
	PerByte       string
	Propagation   string
	Collectives   string
	CollBytes     bool
	AllowNegative bool
}

// Register adds the model flags to fs.
func (m *ModelFlags) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&m.Seed, "model-seed", 1, "perturbation sampling seed")
	fs.StringVar(&m.OSNoise, "os-noise", "", "OS-noise delta distribution per local edge")
	fs.Int64Var(&m.Quantum, "noise-quantum", 0, "compute-gap noise quantum in cycles (0 = per edge)")
	fs.StringVar(&m.Latency, "latency", "", "latency delta distribution per message edge")
	fs.StringVar(&m.PerByte, "per-byte", "", "per-byte delta distribution per message edge")
	fs.StringVar(&m.Propagation, "propagation", "additive", "delta combining: additive|anchored")
	fs.StringVar(&m.Collectives, "collectives", "approx", "collective model: approx|explicit")
	fs.BoolVar(&m.CollBytes, "collective-bytes", false, "include per-byte deltas in collective rounds")
	fs.BoolVar(&m.AllowNegative, "allow-negative", false, "permit negative deltas (less-noise what-if, §7)")
}

// Build resolves the flags into a perturbation model.
func (m *ModelFlags) Build() (*core.Model, error) {
	model := &core.Model{
		Seed:            m.Seed,
		NoiseQuantum:    m.Quantum,
		CollectiveBytes: m.CollBytes,
		AllowNegative:   m.AllowNegative,
	}
	var err error
	if model.OSNoise, err = optDist(m.OSNoise); err != nil {
		return nil, fmt.Errorf("-os-noise: %w", err)
	}
	if model.MsgLatency, err = optDist(m.Latency); err != nil {
		return nil, fmt.Errorf("-latency: %w", err)
	}
	if model.PerByte, err = optDist(m.PerByte); err != nil {
		return nil, fmt.Errorf("-per-byte: %w", err)
	}
	switch strings.ToLower(m.Propagation) {
	case "additive", "":
		model.Propagation = core.PropagationAdditive
	case "anchored":
		model.Propagation = core.PropagationAnchored
	default:
		return nil, fmt.Errorf("-propagation: unknown mode %q", m.Propagation)
	}
	switch strings.ToLower(m.Collectives) {
	case "approx", "":
		model.Collectives = core.CollectiveApprox
	case "explicit":
		model.Collectives = core.CollectiveExplicit
	default:
		return nil, fmt.Errorf("-collectives: unknown mode %q", m.Collectives)
	}
	return model, nil
}

// WorkloadFlags collects the workload selection and knobs.
type WorkloadFlags struct {
	Name       string
	Iterations int
	Bytes      int64
	Compute    int64
	CollEvery  int
	Tasks      int
	Seed       uint64
}

// Register adds the workload flags to fs.
func (w *WorkloadFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&w.Name, "workload", "tokenring",
		fmt.Sprintf("workload name (%s)", strings.Join(workloads.Names(), ", ")))
	fs.IntVar(&w.Iterations, "iters", 0, "iterations (0 = workload default)")
	fs.Int64Var(&w.Bytes, "bytes", 0, "message payload bytes (0 = workload default)")
	fs.Int64Var(&w.Compute, "compute", 0, "per-iteration compute cycles (0 = workload default)")
	fs.IntVar(&w.CollEvery, "coll-every", 0, "collective cadence (0 = workload default)")
	fs.IntVar(&w.Tasks, "tasks", 0, "task count for masterworker (0 = default)")
	fs.Uint64Var(&w.Seed, "workload-seed", 1, "workload-internal randomness seed")
}

// Options converts the flags to workload options.
func (w *WorkloadFlags) Options() workloads.Options {
	return workloads.Options{
		Iterations: w.Iterations,
		Bytes:      w.Bytes,
		Compute:    w.Compute,
		CollEvery:  w.CollEvery,
		Tasks:      w.Tasks,
		Seed:       w.Seed,
	}
}

// optDist parses a distribution spec, treating "" as nil (absent).
func optDist(spec string) (dist.Distribution, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	return dist.Parse(spec)
}
