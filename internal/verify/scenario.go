// Package verify is the standing correctness harness for the two
// schedule-prediction engines: a differential oracle that replays
// randomly generated scenarios through both the graph-traversal
// analyzer (internal/core) and the DES baseline (internal/baseline)
// and asserts agreement within documented model-equivalence bounds, a
// metamorphic property suite over the graph engine, and a structural
// linter for traces and built graphs. The paper's Section 1 claim —
// that direct graph traversal computes the same perturbed schedules a
// general discrete-event simulation would — is exactly the property
// this package checks on every generated scenario (doc/VERIFY.md
// derives the bounds).
package verify

import (
	"encoding/json"
	"fmt"
	"os"

	"mpgraph/internal/baseline"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/scenario"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// Class selects which machine parameter a scenario perturbs. Constant
// (deterministic) deltas only: they admit exact model-equivalence
// bounds between the two engines.
type Class string

// Perturbation classes.
const (
	// ClassZero perturbs nothing; both engines must reproduce the base
	// schedule exactly.
	ClassZero Class = "zero"
	// ClassLatency adds a constant per-message latency delta.
	ClassLatency Class = "latency"
	// ClassBandwidth scales the link bandwidth down by a factor.
	ClassBandwidth Class = "bandwidth"
	// ClassNoise adds a constant per-operation OS-noise delta.
	ClassNoise Class = "noise"
	// ClassMixed applies all three at once.
	ClassMixed Class = "mixed"
)

// Classes lists every perturbation class in generation order.
var Classes = []Class{ClassZero, ClassLatency, ClassBandwidth, ClassNoise, ClassMixed}

// Scenario is one differential test case: a workload configuration
// that generates a trace, a base machine model, and a perturbation.
// It is the unit the shrinker minimizes and the reproducer file
// persists.
type Scenario struct {
	// Workload names the internal/workloads program.
	Workload string `json:"workload"`
	// Ranks is the world size (power of two when the workload is
	// butterfly).
	Ranks int `json:"ranks"`
	// Iterations, Tasks, Bytes, Compute, CollEvery feed
	// workloads.Options. All are >= 1 so a generated scenario never
	// falls back to the workload's (larger) defaults.
	Iterations int   `json:"iterations"`
	Tasks      int   `json:"tasks"`
	Bytes      int64 `json:"bytes"`
	Compute    int64 `json:"compute"`
	CollEvery  int   `json:"coll_every"`
	// WorkloadSeed drives workload-internal randomness (random pairs).
	WorkloadSeed uint64 `json:"workload_seed"`
	// MachineSeed drives the tracing platform's randomness.
	MachineSeed uint64 `json:"machine_seed"`
	// EagerLimit is the tracing platform's eager threshold in bytes
	// (affects trace structure only; 0 = rendezvous sends).
	EagerLimit int64 `json:"eager_limit,omitempty"`

	// BaseLatency and BaseBandwidth are the DES baseline's unperturbed
	// communication model (cycles and bytes/cycle).
	BaseLatency   int64   `json:"base_latency"`
	BaseBandwidth float64 `json:"base_bandwidth"`

	// Class picks the perturbation; the delta fields below apply only
	// to the classes that read them.
	Class Class `json:"class"`
	// DeltaLatency is the added per-message latency in cycles
	// (latency/mixed).
	DeltaLatency int64 `json:"delta_latency,omitempty"`
	// BandwidthFactor scales BaseBandwidth, in (0, 1] (bandwidth/mixed).
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
	// NoiseCycles is the constant per-operation OS noise in cycles
	// (noise/mixed).
	NoiseCycles int64 `json:"noise_cycles,omitempty"`
}

// genWorkloads are the workloads the generator draws from, with the
// rank range each supports. Butterfly is power-of-two only.
var genWorkloads = []struct {
	name     string
	minRanks int
	maxRanks int
}{
	{"tokenring", 2, 8},
	{"stencil1d", 2, 8},
	{"stencil2d", 2, 8},
	{"cg", 2, 6},
	{"masterworker", 2, 6},
	{"dynfarm", 2, 6},
	{"pipeline", 2, 8},
	{"butterfly", 2, 8},
	{"randompairs", 2, 8},
	{"bsp", 2, 6},
	{"wavefront", 2, 8},
}

// bandwidthChoices keeps generated bandwidths on values whose
// reciprocals are exact in float64, so documented truncation bounds
// stay tight.
var bandwidthChoices = []float64{0.5, 1, 2, 4}

// factorChoices are the bandwidth slowdown factors (<= 1 so the
// per-byte delta 1/B1 - 1/B0 is never negative).
var factorChoices = []float64{0.25, 0.5, 0.75, 1}

// Generate draws a random scenario from rng. Equal RNG states yield
// equal scenarios; the campaign derives one RNG per index via
// parallel.TaskSeed so generation is schedule-independent.
func Generate(rng *dist.RNG) *Scenario {
	w := genWorkloads[rng.Intn(len(genWorkloads))]
	ranks := w.minRanks + rng.Intn(w.maxRanks-w.minRanks+1)
	if w.name == "butterfly" {
		ranks = 1 << uint(rng.Intn(3)+1) // 2, 4, 8
	}
	sc := &Scenario{
		Workload:      w.name,
		Ranks:         ranks,
		Iterations:    1 + rng.Intn(6),
		Tasks:         1 + rng.Intn(12),
		Bytes:         1 + rng.Int63n(8192),
		Compute:       1 + rng.Int63n(50_000),
		CollEvery:     1 + rng.Intn(4),
		WorkloadSeed:  rng.Uint64(),
		MachineSeed:   rng.Uint64(),
		BaseLatency:   1 + rng.Int63n(2000),
		BaseBandwidth: bandwidthChoices[rng.Intn(len(bandwidthChoices))],
		Class:         Classes[rng.Intn(len(Classes))],
	}
	if rng.Intn(2) == 0 {
		sc.EagerLimit = 1 + rng.Int63n(4096)
	}
	switch sc.Class {
	case ClassLatency:
		sc.DeltaLatency = 1 + rng.Int63n(5000)
	case ClassBandwidth:
		sc.BandwidthFactor = factorChoices[rng.Intn(len(factorChoices)-1)] // exclude 1
	case ClassNoise:
		sc.NoiseCycles = 1 + rng.Int63n(2000)
	case ClassMixed:
		sc.DeltaLatency = 1 + rng.Int63n(5000)
		sc.BandwidthFactor = factorChoices[rng.Intn(len(factorChoices))]
		sc.NoiseCycles = 1 + rng.Int63n(2000)
	}
	return sc
}

// Validate rejects scenarios the harness cannot run meaningfully.
func (sc *Scenario) Validate() error {
	if _, ok := workloads.Get(sc.Workload); !ok {
		return fmt.Errorf("verify: unknown workload %q", sc.Workload)
	}
	if sc.Ranks < 1 {
		return fmt.Errorf("verify: ranks %d < 1", sc.Ranks)
	}
	if sc.Workload == "butterfly" && sc.Ranks&(sc.Ranks-1) != 0 {
		return fmt.Errorf("verify: butterfly needs power-of-two ranks, got %d", sc.Ranks)
	}
	if sc.Iterations < 1 || sc.Tasks < 1 || sc.Bytes < 1 || sc.Compute < 1 || sc.CollEvery < 1 {
		return fmt.Errorf("verify: workload size fields must be >= 1 (zero would silently fall back to workload defaults)")
	}
	if sc.BaseLatency < 0 || sc.BaseBandwidth <= 0 {
		return fmt.Errorf("verify: base machine model needs latency >= 0 and bandwidth > 0")
	}
	switch sc.Class {
	case ClassZero, ClassLatency, ClassBandwidth, ClassNoise, ClassMixed:
	default:
		return fmt.Errorf("verify: unknown perturbation class %q", sc.Class)
	}
	if sc.BandwidthFactor < 0 || sc.BandwidthFactor > 1 {
		return fmt.Errorf("verify: bandwidth factor %g outside (0, 1]", sc.BandwidthFactor)
	}
	if sc.DeltaLatency < 0 || sc.NoiseCycles < 0 {
		return fmt.Errorf("verify: negative perturbation delta")
	}
	return nil
}

// Name is a compact human-readable identity for reports.
func (sc *Scenario) Name() string {
	return fmt.Sprintf("%s/p%d/%s", sc.Workload, sc.Ranks, sc.Class)
}

// options maps the scenario onto workloads.Options.
func (sc *Scenario) options() workloads.Options {
	return workloads.Options{
		Iterations: sc.Iterations,
		Bytes:      sc.Bytes,
		Compute:    sc.Compute,
		CollEvery:  sc.CollEvery,
		Tasks:      sc.Tasks,
		Seed:       sc.WorkloadSeed,
	}
}

// BuildMemTraces runs the scenario's workload on the simulated
// platform and returns the in-memory per-rank traces. The traced
// timestamps only seed the differential harness's retiming pass; the
// platform model here shapes trace *structure* (matching, request ids,
// eager sends), not the compared schedules.
func (sc *Scenario) BuildMemTraces() ([]*trace.MemTrace, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	prog, err := workloads.BuildByName(sc.Workload, sc.options())
	if err != nil {
		return nil, err
	}
	cfg := mpi.Config{Machine: machine.Config{
		NRanks:        sc.Ranks,
		Seed:          sc.MachineSeed,
		Latency:       dist.Constant{C: float64(sc.BaseLatency)},
		BytesPerCycle: sc.BaseBandwidth,
		EagerLimit:    sc.EagerLimit,
	}}
	res, err := mpi.Run(cfg, prog)
	if err != nil {
		return nil, fmt.Errorf("verify: %s: trace generation: %w", sc.Name(), err)
	}
	return res.Traces, nil
}

// BuildTraces wraps BuildMemTraces as a trace.Set.
func (sc *Scenario) BuildTraces() (*trace.Set, error) {
	traces, err := sc.BuildMemTraces()
	if err != nil {
		return nil, err
	}
	return trace.SetFromMem(traces)
}

// maxReplayEvents caps DES replays during campaigns; a well-formed
// generated scenario stays far below it.
const maxReplayEvents = 50_000_000

// BaseParams is the unperturbed DES model. Eager data anchors every
// transfer at the sender, aligning the replayer's merge structure with
// the graph model's Fig. 2 data path (doc/VERIFY.md).
func (sc *Scenario) BaseParams() baseline.Params {
	return baseline.Params{
		Latency:       sc.BaseLatency,
		BytesPerCycle: sc.BaseBandwidth,
		EagerData:     true,
		MaxEvents:     maxReplayEvents,
	}
}

// PerturbedParams applies the scenario's class deltas to the base DES
// model. Noise uses a constant distribution, so the replay stays
// deterministic and pointwise comparable.
func (sc *Scenario) PerturbedParams() baseline.Params {
	p := sc.BaseParams()
	switch sc.Class {
	case ClassLatency:
		p.Latency += sc.DeltaLatency
	case ClassBandwidth:
		p.BytesPerCycle *= sc.BandwidthFactor
	case ClassNoise:
		if sc.NoiseCycles > 0 {
			p.OSNoise = dist.Constant{C: float64(sc.NoiseCycles)}
		}
	case ClassMixed:
		p.Latency += sc.DeltaLatency
		if sc.BandwidthFactor > 0 {
			p.BytesPerCycle *= sc.BandwidthFactor
		}
		if sc.NoiseCycles > 0 {
			p.OSNoise = dist.Constant{C: float64(sc.NoiseCycles)}
		}
	}
	return p
}

// deltaPerByte is the graph model's per-byte delta matching the DES
// bandwidth change: 1/B1 - 1/B0 cycles per byte (0 when bandwidth is
// unperturbed).
func (sc *Scenario) deltaPerByte() float64 {
	p0, p1 := sc.BaseParams(), sc.PerturbedParams()
	//mpg:lint-ignore floateq parameter-identity check: both sides are the scenario's configured BytesPerCycle
	if p1.BytesPerCycle == p0.BytesPerCycle {
		return 0
	}
	return 1/p1.BytesPerCycle - 1/p0.BytesPerCycle
}

// graphDeltas returns the constant graph-model deltas equivalent to
// the scenario's DES perturbation.
func (sc *Scenario) graphDeltas() (latency, perByte, noise float64) {
	p0, p1 := sc.BaseParams(), sc.PerturbedParams()
	latency = float64(p1.Latency - p0.Latency)
	perByte = sc.deltaPerByte()
	if p1.OSNoise != nil {
		noise = float64(sc.NoiseCycles)
	}
	return latency, perByte, noise
}

// PerturbationFile expresses the scenario's perturbation as a
// persistable scenario.File (constant distributions only).
func (sc *Scenario) PerturbationFile() *scenario.File {
	return sc.scaledFile(1)
}

// scaledFile is PerturbationFile with every delta multiplied by k
// (the metamorphic monotonicity probe).
func (sc *Scenario) scaledFile(k float64) *scenario.File {
	lat, perByte, noise := sc.graphDeltas()
	return scenario.Constants(sc.Name(), lat*k, perByte*k, noise*k)
}

// LoadScenario reads a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("verify: %s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("verify: %s: %w", path, err)
	}
	return &sc, nil
}
