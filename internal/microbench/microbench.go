// Package microbench implements the paper's Section 5 measurement
// pipeline: microbenchmarks probe a platform for its OS-noise and
// interconnect behaviour, and the resulting samples become the
// empirical (or fitted analytic) distributions that parameterize the
// analyzer. The probes run as ordinary programs on the simulated
// runtime — exactly how they would run on real hardware — with tracing
// disabled.
//
// Implemented probes:
//   - FTQ (fixed time quantum, Sottile & Minnich): repeatedly time a
//     fixed-size work quantum; the excess over the nominal quantum is
//     the noise lost to the "OS".
//   - Ping-pong (Mraz-style): round-trip small messages between two
//     ranks; half the round trip estimates one-way latency and its
//     variability.
//   - Bandwidth: one-way large messages with a small acknowledgment;
//     payload divided by transfer time estimates sustainable
//     bandwidth.
package microbench

import (
	"encoding/json"
	"fmt"
	"os"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
)

// Config tunes the probe sizes.
type Config struct {
	// Quantum is the FTQ work quantum in cycles. Default 10_000.
	Quantum int64
	// FTQSamples is the number of FTQ quanta measured. Default 2000.
	FTQSamples int
	// PingPongSamples is the number of round trips. Default 1000.
	PingPongSamples int
	// PingPongBytes is the small-message size. Default 8.
	PingPongBytes int64
	// BandwidthBytes is the large-message size. Default 1 MiB.
	BandwidthBytes int64
	// BandwidthSamples is the number of large transfers. Default 50.
	BandwidthSamples int
}

func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = 10_000
	}
	if c.FTQSamples <= 0 {
		c.FTQSamples = 2000
	}
	if c.PingPongSamples <= 0 {
		c.PingPongSamples = 1000
	}
	if c.PingPongBytes <= 0 {
		c.PingPongBytes = 8
	}
	if c.BandwidthBytes <= 0 {
		c.BandwidthBytes = 1 << 20
	}
	if c.BandwidthSamples <= 0 {
		c.BandwidthSamples = 50
	}
	return c
}

// Signature is a platform's measured fingerprint (paper Section 5:
// "each parallel platform has a signature defined by the set of
// metrics determined by various microbenchmarks"). It serializes to
// JSON so signatures can be archived and fed to later analyses.
type Signature struct {
	// Platform is a free-form label.
	Platform string `json:"platform"`
	// Quantum is the FTQ quantum the noise samples refer to.
	Quantum int64 `json:"quantum"`
	// NoisePerQuantum holds FTQ samples: cycles lost per quantum.
	NoisePerQuantum []float64 `json:"noise_per_quantum"`
	// OneWayLatency holds ping-pong samples: estimated one-way small-
	// message latency in cycles (includes call overheads).
	OneWayLatency []float64 `json:"one_way_latency"`
	// BytesPerCycle is the measured bandwidth.
	BytesPerCycle float64 `json:"bytes_per_cycle"`
}

// NoiseSummary summarizes the FTQ samples.
func (s *Signature) NoiseSummary() dist.Summary { return dist.Summarize(s.NoisePerQuantum) }

// LatencySummary summarizes the ping-pong samples.
func (s *Signature) LatencySummary() dist.Summary { return dist.Summarize(s.OneWayLatency) }

// NoiseEmpirical returns the empirical OS-noise distribution.
func (s *Signature) NoiseEmpirical() dist.Distribution {
	return dist.NewEmpirical(s.NoisePerQuantum)
}

// LatencyJitterEmpirical returns the empirical distribution of latency
// *in excess of the observed minimum* — the delta form the analyzer
// injects on message edges (the traced run already contains the base
// latency).
func (s *Signature) LatencyJitterEmpirical() dist.Distribution {
	min := dist.Summarize(s.OneWayLatency).Min
	shifted := make([]float64, len(s.OneWayLatency))
	for i, v := range s.OneWayLatency {
		shifted[i] = v - min
	}
	return dist.NewEmpirical(shifted)
}

// Save writes the signature as JSON.
func (s *Signature) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a signature written by Save.
func Load(path string) (*Signature, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Signature
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("microbench: %s: %w", path, err)
	}
	return &s, nil
}

// Measure runs all probes against the given platform model and
// assembles its signature. The platform needs at least 2 ranks for the
// messaging probes.
func Measure(platform machine.Config, cfg Config, label string) (*Signature, error) {
	cfg = cfg.withDefaults()
	if platform.NRanks < 2 {
		return nil, fmt.Errorf("microbench: need >= 2 ranks, got %d", platform.NRanks)
	}
	sig := &Signature{Platform: label, Quantum: cfg.Quantum}

	noise, err := FTQ(platform, cfg.Quantum, cfg.FTQSamples)
	if err != nil {
		return nil, err
	}
	sig.NoisePerQuantum = noise

	lat, err := PingPong(platform, cfg.PingPongBytes, cfg.PingPongSamples)
	if err != nil {
		return nil, err
	}
	sig.OneWayLatency = lat

	bw, err := Bandwidth(platform, cfg.BandwidthBytes, cfg.BandwidthSamples)
	if err != nil {
		return nil, err
	}
	sig.BytesPerCycle = bw
	return sig, nil
}

// FTQ measures cycles lost per fixed work quantum on rank 0 of the
// platform.
func FTQ(platform machine.Config, quantum int64, samples int) ([]float64, error) {
	out := make([]float64, 0, samples)
	_, err := mpi.Run(mpi.Config{Machine: platform, DisableTracing: true}, func(r *mpi.Rank) error {
		if r.Rank() != 0 {
			return nil
		}
		for i := 0; i < samples; i++ {
			t0 := r.Now()
			r.Compute(quantum)
			lost := (r.Now() - t0) - quantum
			out = append(out, float64(lost))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pingPongWarmup is the number of initial round trips discarded: the
// first exchanges run before the two ranks reach steady-state relative
// timing (the usual microbenchmark warm-up discipline).
const pingPongWarmup = 4

// PingPong measures estimated one-way latency between ranks 0 and 1:
// half of each small-message round trip, after a warm-up.
func PingPong(platform machine.Config, bytes int64, samples int) ([]float64, error) {
	out := make([]float64, 0, samples)
	total := samples + pingPongWarmup
	_, err := mpi.Run(mpi.Config{Machine: platform, DisableTracing: true}, func(r *mpi.Rank) error {
		switch r.Rank() {
		case 0:
			for i := 0; i < total; i++ {
				t0 := r.Now()
				r.Send(1, 0, bytes)
				r.Recv(1, 1)
				if i >= pingPongWarmup {
					out = append(out, float64(r.Now()-t0)/2)
				}
			}
		case 1:
			for i := 0; i < total; i++ {
				r.Recv(0, 0)
				r.Send(0, 1, bytes)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Bandwidth measures sustained bytes/cycle for large one-way messages
// (with a zero-byte acknowledgment), subtracting the small-message
// round-trip baseline so the latency component is discounted (the
// paper's requirement that the message be large enough for latency to
// be negligible is thereby relaxed).
func Bandwidth(platform machine.Config, bytes int64, samples int) (float64, error) {
	// Baseline: zero-payload round trip.
	base, err := PingPong(platform, 1, 100)
	if err != nil {
		return 0, err
	}
	baseRTT := 2 * dist.Summarize(base).Median

	var total float64
	_, err = mpi.Run(mpi.Config{Machine: platform, DisableTracing: true}, func(r *mpi.Rank) error {
		switch r.Rank() {
		case 0:
			for i := 0; i < samples; i++ {
				t0 := r.Now()
				r.Send(1, 0, bytes)
				r.Recv(1, 1) // zero-byte ack
				total += float64(r.Now() - t0)
			}
		case 1:
			for i := 0; i < samples; i++ {
				r.Recv(0, 0)
				r.Send(0, 1, 0)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	perMsg := total/float64(samples) - baseRTT
	if perMsg <= 0 {
		return 0, fmt.Errorf("microbench: bandwidth probe produced non-positive transfer time")
	}
	return float64(bytes) / perMsg, nil
}
