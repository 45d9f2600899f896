// Package scenario loads perturbation scenarios from JSON files: a
// named, persistable bundle of model parameters (the "richer set of
// parameters to the simulation" of the paper's Section 7). A scenario
// file keeps what-if studies reproducible and shareable:
//
//	{
//	  "name": "noisy-shared-node",
//	  "os_noise": "spike:0.01,exponential:20000",
//	  "rank_os_noise": {"5": "constant:50000"},
//	  "noise_quantum": 100000,
//	  "latency": "exponential:300",
//	  "per_byte": "constant:0.01",
//	  "propagation": "additive",
//	  "collectives": "approx",
//	  "collective_bytes": true,
//	  "allow_negative": false,
//	  "seed": 7
//	}
//
// Distribution values use the internal/dist spec syntax. All fields
// are optional; omitted ones inject nothing / use defaults.
package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
)

// File is the JSON shape of a scenario.
type File struct {
	Name            string            `json:"name,omitempty"`
	OSNoise         string            `json:"os_noise,omitempty"`
	RankOSNoise     map[string]string `json:"rank_os_noise,omitempty"`
	NoiseQuantum    int64             `json:"noise_quantum,omitempty"`
	Latency         string            `json:"latency,omitempty"`
	PerByte         string            `json:"per_byte,omitempty"`
	Propagation     string            `json:"propagation,omitempty"`
	Collectives     string            `json:"collectives,omitempty"`
	CollectiveBytes bool              `json:"collective_bytes,omitempty"`
	AllowNegative   bool              `json:"allow_negative,omitempty"`
	Seed            uint64            `json:"seed,omitempty"`
}

// Load reads and compiles a scenario file into a perturbation model.
func Load(path string) (*core.Model, *File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	m, err := f.Model()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return m, &f, nil
}

// maxRankKey bounds the rank_os_noise keys a file may name.
const maxRankKey = 1 << 20

// Model compiles the scenario into a core.Model.
func (f *File) Model() (*core.Model, error) {
	m := &core.Model{
		Seed:            f.Seed,
		NoiseQuantum:    f.NoiseQuantum,
		CollectiveBytes: f.CollectiveBytes,
		AllowNegative:   f.AllowNegative,
	}
	var err error
	if m.OSNoise, err = optDist(f.OSNoise); err != nil {
		return nil, fmt.Errorf("os_noise: %w", err)
	}
	if m.MsgLatency, err = optDist(f.Latency); err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	if m.PerByte, err = optDist(f.PerByte); err != nil {
		return nil, fmt.Errorf("per_byte: %w", err)
	}
	// Sorted keys: the first bad key, and the winner among keys naming
	// one rank ("1", "01"), must not depend on map order.
	for _, key := range slices.Sorted(maps.Keys(f.RankOSNoise)) {
		rank, err := strconv.Atoi(key)
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("rank_os_noise: bad rank key %q", key)
		}
		// The key sizes RankOSNoise, so cap it as the trace decoder
		// caps declared metadata counts.
		if rank >= maxRankKey {
			return nil, fmt.Errorf("rank_os_noise: implausible rank key %q (limit %d)", key, maxRankKey-1)
		}
		d, err := dist.Parse(f.RankOSNoise[key])
		if err != nil {
			return nil, fmt.Errorf("rank_os_noise[%s]: %w", key, err)
		}
		if n := rank + 1; n > len(m.RankOSNoise) {
			m.RankOSNoise = append(m.RankOSNoise, make([]dist.Distribution, n-len(m.RankOSNoise))...)
		}
		m.RankOSNoise[rank] = d
	}
	switch f.Propagation {
	case "", "additive":
		m.Propagation = core.PropagationAdditive
	case "anchored":
		m.Propagation = core.PropagationAnchored
	default:
		return nil, fmt.Errorf("propagation: unknown mode %q", f.Propagation)
	}
	switch f.Collectives {
	case "", "approx":
		m.Collectives = core.CollectiveApprox
	case "explicit":
		m.Collectives = core.CollectiveExplicit
	default:
		return nil, fmt.Errorf("collectives: unknown mode %q", f.Collectives)
	}
	return m, nil
}

// Constants builds a scenario that perturbs with fixed (deterministic)
// deltas: latency cycles per message edge, perByte cycles per payload
// byte, and osNoise cycles per noise draw. Zero-valued deltas are
// omitted entirely. The differential verification harness uses constant
// scenarios because they admit exact model-equivalence bounds against
// the DES baseline (doc/VERIFY.md).
func Constants(name string, latency, perByte, osNoise float64) *File {
	f := &File{Name: name, CollectiveBytes: perByte != 0}
	format := func(v float64) string {
		return "constant:" + strconv.FormatFloat(v, 'g', -1, 64)
	}
	if latency != 0 {
		f.Latency = format(latency)
	}
	if perByte != 0 {
		f.PerByte = format(perByte)
	}
	if osNoise != 0 {
		f.OSNoise = format(osNoise)
	}
	return f
}

// Save writes the scenario as indented JSON.
func (f *File) Save(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func optDist(spec string) (dist.Distribution, error) {
	if spec == "" {
		return nil, nil
	}
	return dist.Parse(spec)
}
