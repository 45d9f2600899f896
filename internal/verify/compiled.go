package verify

import (
	"fmt"
	"reflect"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
)

// CompiledEquivalence asserts that the compile-once/replay-many engine
// is indistinguishable from the streaming analyzer over the scenario's
// trace. The compiled program is built once; each model × propagation
// mode × collective mode combination is then run through both engines
// with critical-path recording on, and the full Results (delays,
// attributions, regions, warnings, critical path) must be deeply
// equal. Two models are exercised: the scenario's own constant deltas
// (the same perturbation the differential check replays against the
// DES oracle) and a sampled stochastic model seeded from the scenario,
// so both the degenerate and the RNG-driven draw orders are covered.
func CompiledEquivalence(sc *Scenario) ([]string, error) {
	traces, err := sc.BuildMemTraces()
	if err != nil {
		return nil, err
	}
	cset, err := trace.SetFromMem(traces)
	if err != nil {
		return nil, err
	}
	prog, err := core.Compile(cset, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sset, err := trace.SetFromMem(traces)
	if err != nil {
		return nil, err
	}
	snap, err := trace.NewSnapshot(sset)
	if err != nil {
		return nil, err
	}

	models, labels := equivalenceGrid(sc)
	var failures []string
	for i, trial := range models {
		opts := core.Options{RecordCritPath: true}
		set, release := snap.Acquire()
		want, err := core.Analyze(set, trial, opts)
		release()
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: streaming analyze: %v", labels[i], err))
			continue
		}
		got, err := core.ReplayCompiled(prog, trial, opts)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: compiled replay: %v", labels[i], err))
			continue
		}
		if !reflect.DeepEqual(want, got) {
			failures = append(failures, fmt.Sprintf(
				"%s: compiled replay diverged from streaming analyze (makespan %g vs %g, crit-path steps %d vs %d, warnings %d vs %d)",
				labels[i],
				got.MakespanDelay, want.MakespanDelay,
				critSteps(got), critSteps(want),
				len(got.Warnings), len(want.Warnings)))
		}
	}
	return failures, nil
}

// equivalenceGrid builds the model grid CompiledEquivalence walks —
// the scenario's constant perturbation (as the differential
// check models it) and a seeded stochastic model (equivalence must
// hold draw for draw, not just in expectation), each crossed with both
// propagation modes and both collective modes — plus one label per
// cell for failure messages.
func equivalenceGrid(sc *Scenario) ([]*core.Model, []string) {
	lat, perByte, noise := sc.graphDeltas()
	bases := []*core.Model{
		{
			Seed:       sc.MachineSeed,
			MsgLatency: dist.Constant{C: lat},
			PerByte:    dist.Constant{C: perByte},
			OSNoise:    dist.Constant{C: noise},
		},
		{
			Seed:            sc.MachineSeed*6364136223846793005 + 1442695040888963407,
			OSNoise:         dist.Exponential{MeanValue: 120},
			MsgLatency:      dist.Exponential{MeanValue: float64(sc.BaseLatency)/4 + 1},
			PerByte:         dist.Constant{C: 0.25},
			CollectiveBytes: true,
		},
	}
	var models []*core.Model
	var labels []string
	for _, m := range bases {
		for _, pm := range []core.PropagationMode{core.PropagationAdditive, core.PropagationAnchored} {
			for _, cm := range []core.CollectiveMode{core.CollectiveApprox, core.CollectiveExplicit} {
				trial := m.Clone()
				trial.Propagation = pm
				trial.Collectives = cm
				models = append(models, trial)
				labels = append(labels, fmt.Sprintf("%s/%s seed %d", pm, cm, trial.Seed))
			}
		}
	}
	return models, labels
}

// critSteps counts a result's critical-path steps (0 when unrecorded).
func critSteps(res *core.Result) int {
	if res.CritPath == nil {
		return 0
	}
	return len(res.CritPath.Steps)
}
