// Package machine models the parallel platform on which traced runs
// execute: per-rank local clocks with offset and drift, an operating
// system noise injector, and an interconnection network with latency,
// bandwidth, and optional NIC serialization (contention).
//
// The paper's methodology needs real machines only as sources of
// (a) traces and (b) microbenchmark-derived parameter distributions.
// This package is the substitute for both: the simulated MPI runtime
// (internal/mpi) asks it for timing, and the microbenchmarks
// (internal/microbench) probe it exactly as they would probe hardware.
// Every quantity is drawn from an internal/dist distribution, which is
// precisely the level of abstraction the paper's Section 5 argues for.
package machine

import (
	"fmt"

	"mpgraph/internal/dist"
)

// Config describes a platform. The zero value is not usable; call
// (Config).Validate or use New which applies defaults.
type Config struct {
	// NRanks is the number of processors.
	NRanks int
	// Seed drives all platform randomness (noise, latency, clock
	// distortion). Runs with equal seeds are identical.
	Seed uint64

	// Noise is the per-operation OS noise distribution (cycles added
	// to every MPI call and compute quantum). Defaults to no noise.
	Noise dist.Distribution
	// RankNoise, when non-nil, overrides Noise per rank (index = rank;
	// nil entries fall back to Noise) — heterogeneous platforms, e.g.
	// one daemon-ridden node.
	RankNoise []dist.Distribution
	// CPUScale, when non-nil, multiplies each rank's compute time
	// (index = rank; 0 entries mean 1.0). Values > 1 model slower
	// cores, < 1 faster ones.
	CPUScale []float64
	// ComputeQuantum is the compute-noise sampling quantum in cycles:
	// a compute period of w cycles accrues ceil(w/quantum) independent
	// Noise samples, modeling FTQ-style periodic interference. Zero
	// means one sample per compute period regardless of length.
	ComputeQuantum int64

	// Latency is the per-message one-way wire latency distribution in
	// cycles. Defaults to constant 1000.
	Latency dist.Distribution
	// BytesPerCycle is the link bandwidth. Defaults to 1.0.
	BytesPerCycle float64
	// SendOverhead and RecvOverhead are fixed per-call CPU costs in
	// cycles (the "o" of LogP-style models). Default 100.
	SendOverhead, RecvOverhead int64
	// EagerLimit is the message size (bytes) at or below which a
	// blocking send completes without waiting for the receiver's
	// acknowledgment. Zero means fully synchronous (rendezvous) sends,
	// matching the paper's blocking model with its ack path.
	EagerLimit int64
	// NICContention serializes message injections per source rank: a
	// rank's NIC transmits one message at a time.
	NICContention bool
	// Topology scales per-pair latency by hop count (default TopoFull:
	// one hop between any pair).
	Topology Topology

	// ClockOffset is sampled once per rank: the local clock's offset
	// in cycles at global time zero. Defaults to zero (aligned clocks).
	ClockOffset dist.Distribution
	// ClockDriftPPM is sampled once per rank: parts-per-million rate
	// error of the local clock. Defaults to zero (perfect rate).
	ClockDriftPPM dist.Distribution
}

// Validate checks structural validity of the configuration.
func (c Config) Validate() error {
	if c.NRanks <= 0 {
		return fmt.Errorf("machine: NRanks must be positive, got %d", c.NRanks)
	}
	if c.BytesPerCycle < 0 {
		return fmt.Errorf("machine: negative bandwidth %g", c.BytesPerCycle)
	}
	if c.SendOverhead < 0 || c.RecvOverhead < 0 {
		return fmt.Errorf("machine: negative overhead")
	}
	if c.ComputeQuantum < 0 {
		return fmt.Errorf("machine: negative compute quantum")
	}
	if c.EagerLimit < 0 {
		return fmt.Errorf("machine: negative eager limit")
	}
	return nil
}

// Machine is an instantiated platform. It is not safe for concurrent
// use: the simulated MPI runtime serializes all access (one rank
// executes at a time), which also keeps the random streams
// deterministic.
type Machine struct {
	cfg Config

	noiseRNG []*dist.RNG // per-rank noise stream
	latRNG   *dist.RNG   // shared latency stream

	offsets []int64 // per-rank clock offset
	drifts  []int64 // per-rank drift in ppm

	nicFree []int64 // per-rank NIC next-free global time (contention)

	// Counters for reports and tests.
	noiseSamples   uint64
	latencySamples uint64
}

// New instantiates a platform, applying defaults for nil distributions.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Noise == nil {
		cfg.Noise = dist.Constant{}
	}
	if cfg.Latency == nil {
		cfg.Latency = dist.Constant{C: 1000}
	}
	if cfg.BytesPerCycle == 0 {
		cfg.BytesPerCycle = 1.0
	}
	if cfg.SendOverhead == 0 {
		cfg.SendOverhead = 100
	}
	if cfg.RecvOverhead == 0 {
		cfg.RecvOverhead = 100
	}
	if cfg.ClockOffset == nil {
		cfg.ClockOffset = dist.Constant{}
	}
	if cfg.ClockDriftPPM == nil {
		cfg.ClockDriftPPM = dist.Constant{}
	}

	m := &Machine{
		cfg:      cfg,
		noiseRNG: make([]*dist.RNG, cfg.NRanks),
		offsets:  make([]int64, cfg.NRanks),
		drifts:   make([]int64, cfg.NRanks),
		nicFree:  make([]int64, cfg.NRanks),
	}
	root := dist.NewRNG(cfg.Seed)
	clockRNG := root.ForkNamed("clocks")
	m.latRNG = root.ForkNamed("latency")
	for r := 0; r < cfg.NRanks; r++ {
		m.noiseRNG[r] = root.ForkNamed(fmt.Sprintf("noise-%d", r))
		m.offsets[r] = int64(cfg.ClockOffset.Sample(clockRNG))
		m.drifts[r] = int64(cfg.ClockDriftPPM.Sample(clockRNG))
	}
	return m, nil
}

// NRanks returns the processor count.
func (m *Machine) NRanks() int { return m.cfg.NRanks }

// noiseFor resolves the noise distribution for a rank.
func (m *Machine) noiseFor(rank int) dist.Distribution {
	if rank < len(m.cfg.RankNoise) && m.cfg.RankNoise[rank] != nil {
		return m.cfg.RankNoise[rank]
	}
	return m.cfg.Noise
}

// OpNoise samples OS noise for a single operation on the given rank.
func (m *Machine) OpNoise(rank int) int64 {
	m.noiseSamples++
	n := int64(m.noiseFor(rank).Sample(m.noiseRNG[rank]))
	if n < 0 {
		n = 0
	}
	return n
}

// ScaleCompute applies the rank's CPU speed factor to a nominal
// compute duration.
func (m *Machine) ScaleCompute(rank int, w int64) int64 {
	if rank < len(m.cfg.CPUScale) && m.cfg.CPUScale[rank] > 0 {
		return int64(float64(w) * m.cfg.CPUScale[rank])
	}
	return w
}

// ComputeNoise returns the OS noise accrued over w cycles of pure
// computation on rank, sampling once per ComputeQuantum (or once total
// when the quantum is zero).
func (m *Machine) ComputeNoise(rank int, w int64) int64 {
	if w <= 0 {
		return 0
	}
	q := m.cfg.ComputeQuantum
	if q <= 0 {
		return m.OpNoise(rank)
	}
	quanta := (w + q - 1) / q
	var total int64
	for i := int64(0); i < quanta; i++ {
		total += m.OpNoise(rank)
	}
	return total
}

// Latency samples a one-way message latency in cycles.
func (m *Machine) Latency() int64 {
	m.latencySamples++
	l := int64(m.cfg.Latency.Sample(m.latRNG))
	if l < 0 {
		l = 0
	}
	return l
}

// XferCycles returns the serialization time of a payload at the
// configured bandwidth.
func (m *Machine) XferCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64(float64(bytes) / m.cfg.BytesPerCycle)
}

// InjectAt models NIC serialization: a message of the given size whose
// injection becomes possible at global time ready on rank src actually
// starts when the NIC frees up, and occupies the NIC for the payload's
// serialization time. It returns the injection start time. Without
// NICContention the start time is simply ready.
func (m *Machine) InjectAt(src int, ready, serCycles int64) int64 {
	if !m.cfg.NICContention {
		return ready
	}
	start := ready
	if m.nicFree[src] > start {
		start = m.nicFree[src]
	}
	m.nicFree[src] = start + serCycles
	return start
}

// SendOverhead returns the fixed CPU cost of initiating a send.
func (m *Machine) SendOverhead() int64 { return m.cfg.SendOverhead }

// RecvOverhead returns the fixed CPU cost of initiating a receive.
func (m *Machine) RecvOverhead() int64 { return m.cfg.RecvOverhead }

// Eager reports whether a payload of the given size completes the
// sender without the acknowledgment round trip.
func (m *Machine) Eager(bytes int64) bool {
	return m.cfg.EagerLimit > 0 && bytes <= m.cfg.EagerLimit
}

// LocalClock converts a global virtual time to rank's local clock:
// local = offset + g + g*drift/1e6. Intervals measured on the local
// clock scale by (1 + drift/1e6); cross-rank comparisons of local
// times are meaningless by construction, which is the property the
// paper's Section 4.1 matching argument rests on.
func (m *Machine) LocalClock(rank int, g int64) int64 {
	return m.offsets[rank] + g + g*m.drifts[rank]/1_000_000
}

// ClockOffset returns rank's sampled clock offset (for reports/tests).
func (m *Machine) ClockOffset(rank int) int64 { return m.offsets[rank] }

// ClockDriftPPM returns rank's sampled drift (for reports/tests).
func (m *Machine) ClockDriftPPM(rank int) int64 { return m.drifts[rank] }

// NoiseSamples returns how many OS-noise samples were drawn.
func (m *Machine) NoiseSamples() uint64 { return m.noiseSamples }

// LatencySamples returns how many latency samples were drawn.
func (m *Machine) LatencySamples() uint64 { return m.latencySamples }
