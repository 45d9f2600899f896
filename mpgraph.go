// Package mpgraph is a trace-driven performance analyzer for
// message-passing parallel programs, reproducing Sottile, Chandu &
// Bader, "Performance analysis of parallel programs via
// message-passing graph traversal" (IPPS 2006).
//
// The pipeline has three stages, each usable on its own:
//
//  1. Trace: run a workload (an ordinary Go function per rank) on the
//     deterministic simulated MPI runtime over a configurable machine
//     model. The PMPI-style tracing layer records per-rank event
//     traces with local (unsynchronized) clocks.
//
//  2. Parameterize: probe a platform with microbenchmarks (FTQ noise,
//     ping-pong latency, bandwidth) to obtain a Signature whose
//     empirical distributions — or fitted analytic families — become
//     the perturbation model.
//
//  3. Analyze: stream the traces through the message-passing graph
//     builder, inject perturbations (OS noise on local edges, latency
//     and size-dependent deltas on message edges), and propagate them
//     with max() merges to per-rank delay results.
//
// Quick start:
//
//	run, err := mpgraph.Trace(mpgraph.RunConfig{
//		Machine: mpgraph.MachineConfig{NRanks: 16, Seed: 1},
//	}, myProgram)
//	set, _ := run.TraceSet()
//	res, err := mpgraph.Analyze(set, &mpgraph.Model{
//		OSNoise:    mpgraph.MustParseDistribution("exponential:200"),
//		MsgLatency: mpgraph.MustParseDistribution("spike:0.01,constant:5000"),
//	}, mpgraph.AnalyzeOptions{})
//	fmt.Println(res.MaxFinalDelay)
//
// See the examples/ directory for complete programs and EXPERIMENTS.md
// for the paper-reproduction harness.
package mpgraph

import (
	"mpgraph/internal/baseline"
	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/microbench"
	"mpgraph/internal/mpi"
	"mpgraph/internal/scenario"
	"mpgraph/internal/sweep"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// Core analysis types.
type (
	// Model parameterizes the simulated perturbations (paper §5).
	Model = core.Model
	// AnalyzeOptions tunes the streaming analyzer.
	AnalyzeOptions = core.Options
	// Result is an analysis outcome.
	Result = core.Result
	// RankResult is one rank's analysis summary.
	RankResult = core.RankResult
	// Attribution decomposes a rank's delay by cause (own noise,
	// remote noise, message deltas).
	Attribution = core.Attribution
	// Graph is a materialized message-passing graph (for DOT export).
	Graph = core.Graph
	// PropagationMode selects additive vs anchored delta combining.
	PropagationMode = core.PropagationMode
	// CollectiveMode selects the compact or explicit collective model.
	CollectiveMode = core.CollectiveMode
)

// Propagation and collective modes (see core documentation).
const (
	PropagationAdditive = core.PropagationAdditive
	PropagationAnchored = core.PropagationAnchored
	CollectiveApprox    = core.CollectiveApprox
	CollectiveExplicit  = core.CollectiveExplicit
)

// Runtime and tracing types.
type (
	// RunConfig configures a traced run.
	RunConfig = mpi.Config
	// MachineConfig describes the simulated platform.
	MachineConfig = machine.Config
	// Program is the per-rank body of a parallel run.
	Program = mpi.Program
	// Rank is a program's handle to the runtime.
	Rank = mpi.Rank
	// Comm is a communicator handle.
	Comm = mpi.Comm
	// Request is a nonblocking operation handle.
	Request = mpi.Request
	// RunResult is a completed traced run.
	RunResult = mpi.Result
	// TraceSet is a complete traced run's per-rank readers.
	TraceSet = trace.Set
)

// Distribution and measurement types.
type (
	// Distribution is a perturbation magnitude source.
	Distribution = dist.Distribution
	// Signature is a microbenchmark-derived platform fingerprint.
	Signature = microbench.Signature
	// MicrobenchConfig tunes the probe sizes.
	MicrobenchConfig = microbench.Config
	// ReplayParams is the Dimemas-style baseline's linear comm model.
	ReplayParams = baseline.Params
	// ReplayResult is a baseline replay outcome.
	ReplayResult = baseline.Result
	// WorkloadOptions are the shared workload knobs.
	WorkloadOptions = workloads.Options
	// SweepConfig describes a perturbation parameter sweep (§6.1).
	SweepConfig = sweep.Config
	// SweepResult is a completed sweep with its linear fit.
	SweepResult = sweep.Result
	// SweepParam selects the swept axis.
	SweepParam = sweep.Param
)

// Sweep axes.
const (
	SweepLatency = sweep.ParamLatency
	SweepNoise   = sweep.ParamNoise
	SweepPerByte = sweep.ParamPerByte
	SweepRanks   = sweep.ParamRanks
)

// Sweep traces a workload once per tracing machine (once, unless the
// sweep varies the rank count) and analyzes every point under the
// swept perturbation parameter — the paper's §6.1 protocol as a
// library call.
func Sweep(cfg SweepConfig) (*SweepResult, error) { return sweep.Run(cfg) }

// Trace executes a program on the simulated runtime, producing traces
// per RunConfig (in memory by default, or to RunConfig.TraceDir).
func Trace(cfg RunConfig, prog Program) (*RunResult, error) { return mpi.Run(cfg, prog) }

// Analyze streams a trace set through the message-passing graph and
// propagates the model's perturbations (the paper's contribution).
func Analyze(set *TraceSet, model *Model, opts AnalyzeOptions) (*Result, error) {
	return core.Analyze(set, model, opts)
}

// BuildGraph materializes the message-passing graph of a trace set
// (for visualization; Analyze never materializes it).
func BuildGraph(set *TraceSet) (*Graph, error) { return core.BuildGraph(set) }

// ParseDistribution parses a textual distribution spec such as
// "exponential:250" or "spike:0.01,lognormal:8,0.5".
func ParseDistribution(spec string) (Distribution, error) { return dist.Parse(spec) }

// MustParseDistribution is ParseDistribution, panicking on error.
func MustParseDistribution(spec string) Distribution { return dist.MustParse(spec) }

// Workload builds a registered workload program by name ("tokenring",
// "stencil1d", ...).
func Workload(name string, opts WorkloadOptions) (Program, error) {
	return workloads.BuildByName(name, opts)
}

// MeasureSignature runs the microbenchmark suite against a platform
// model (paper §5).
func MeasureSignature(platform MachineConfig, cfg MicrobenchConfig, label string) (*Signature, error) {
	return microbench.Measure(platform, cfg, label)
}

// Replay runs the Dimemas-style discrete-event baseline over a trace
// set (the related-work comparator, paper §1.1).
func Replay(set *TraceSet, params ReplayParams) (*ReplayResult, error) {
	return baseline.Replay(set, params)
}

// LoadScenario reads a scenario JSON file (see internal/scenario for
// the format) and compiles it into a perturbation model.
func LoadScenario(path string) (*Model, error) {
	m, _, err := scenario.Load(path)
	return m, err
}

// ModelFromSignature builds a perturbation model from a measured
// platform signature: OS noise from the FTQ empirical distribution and
// message-edge deltas from the latency jitter empirical distribution.
// This answers the paper's headline question — "how would the traced
// application behave on a platform with this signature's noise?"
func ModelFromSignature(sig *Signature, seed uint64) *Model {
	return &Model{
		Seed:         seed,
		OSNoise:      sig.NoiseEmpirical(),
		NoiseQuantum: sig.Quantum,
		MsgLatency:   sig.LatencyJitterEmpirical(),
	}
}
