package verify

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpgraph/internal/dist"
	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
)

// CheckScenario runs every check the harness has against one
// scenario: the structural linter over its generated trace, the
// differential graph-vs-DES comparison, the metamorphic property
// suite, the compiled-replay equivalence check, and the timeline
// wait-state decomposition invariant. The returned strings are check
// failures; an empty slice means the scenario passes. Infrastructure errors (the scenario cannot even
// be traced) are reported as failures too — a generated scenario that
// crashes an engine is a finding, not an excuse.
func CheckScenario(sc *Scenario) []string {
	var failures []string
	traces, err := sc.BuildMemTraces()
	if err != nil {
		return []string{fmt.Sprintf("build: %v", err)}
	}
	for _, f := range LintTraces(traces) {
		failures = append(failures, "lint: "+f.String())
	}
	d, err := Differential(sc)
	if err != nil {
		failures = append(failures, fmt.Sprintf("differential: %v", err))
	} else {
		for _, f := range d.Failures {
			failures = append(failures, "differential: "+f)
		}
	}
	mf, err := Metamorphic(sc)
	if err != nil {
		failures = append(failures, fmt.Sprintf("metamorphic: %v", err))
	} else {
		for _, f := range mf {
			failures = append(failures, "metamorphic: "+f)
		}
	}
	cf, err := CompiledEquivalence(sc)
	if err != nil {
		failures = append(failures, fmt.Sprintf("compiled: %v", err))
	} else {
		for _, f := range cf {
			failures = append(failures, "compiled: "+f)
		}
	}
	tf, err := TimelineInvariant(sc)
	if err != nil {
		failures = append(failures, fmt.Sprintf("timeline: %v", err))
	} else {
		for _, f := range tf {
			failures = append(failures, "timeline: "+f)
		}
	}
	return failures
}

// ScenarioResult is one campaign entry.
type ScenarioResult struct {
	// Index is the scenario's position in the campaign; together with
	// the campaign seed it fully determines the scenario.
	Index int `json:"index"`
	// Scenario is the generated case.
	Scenario *Scenario `json:"scenario"`
	// Failures lists check violations (empty = pass).
	Failures []string `json:"failures,omitempty"`
	// Shrunk is the minimized still-failing scenario (failures only).
	Shrunk *Scenario `json:"shrunk,omitempty"`
	// ShrunkFailures are the failures the shrunk scenario exhibits.
	ShrunkFailures []string `json:"shrunk_failures,omitempty"`
}

// OK reports whether the scenario passed.
func (r *ScenarioResult) OK() bool { return len(r.Failures) == 0 }

// Report summarizes a campaign.
type Report struct {
	// Seed and N identify the campaign (scenario i derives from
	// parallel.TaskSeed(Seed, i), independent of worker scheduling).
	Seed uint64 `json:"seed"`
	N    int    `json:"n"`
	// Checked and Failed count scenarios.
	Checked int `json:"checked"`
	Failed  int `json:"failed"`
	// ByWorkload and ByClass count checked scenarios per kind.
	ByWorkload map[string]int `json:"by_workload"`
	ByClass    map[string]int `json:"by_class"`
	// Results holds every scenario outcome in index order.
	Results []ScenarioResult `json:"results"`
	// ReproPaths lists reproducer files written for failures.
	ReproPaths []string `json:"repro_paths,omitempty"`
}

// OK reports whether the whole campaign passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// CampaignOptions configure a randomized campaign.
type CampaignOptions struct {
	// Seed is the base seed; equal (Seed, N) yield equal campaigns
	// regardless of Workers.
	Seed uint64
	// N is the number of scenarios to generate and check.
	N int
	// Workers bounds the parallel.Map pool (0 = GOMAXPROCS).
	Workers int
	// ShrinkBudget caps predicate evaluations per failing scenario
	// (0 = default).
	ShrinkBudget int
	// ReproDir, when non-empty, receives one reproducer JSON per
	// failing scenario.
	ReproDir string
	// Metrics, when non-nil, times each checked scenario under
	// "verify_scenario", which also puts long campaigns on a
	// -selftrace timeline. Nil disables recording.
	Metrics *obsv.Registry
}

// Campaign generates and checks N random scenarios across a worker
// pool. Failing scenarios are shrunk to minimal reproducers. The
// result is deterministic in (Seed, N): scenario generation derives
// from per-index seeds and results are reassembled in index order.
func Campaign(opts CampaignOptions) (*Report, error) {
	if opts.N <= 0 {
		opts.N = 1
	}
	results, err := parallel.Map(opts.N, parallel.Options{Workers: opts.Workers}, func(i int) (ScenarioResult, error) {
		defer opts.Metrics.Time("verify_scenario").End()
		rng := dist.NewRNG(parallel.TaskSeed(opts.Seed, i))
		sc := Generate(rng)
		res := ScenarioResult{Index: i, Scenario: sc, Failures: CheckScenario(sc)}
		if len(res.Failures) > 0 {
			res.Shrunk = Shrink(sc, func(c *Scenario) bool {
				return len(CheckScenario(c)) > 0
			}, opts.ShrinkBudget)
			res.ShrunkFailures = CheckScenario(res.Shrunk)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Seed:       opts.Seed,
		N:          opts.N,
		ByWorkload: map[string]int{},
		ByClass:    map[string]int{},
		Results:    results,
	}
	for i := range results {
		r := &results[i]
		rep.Checked++
		rep.ByWorkload[r.Scenario.Workload]++
		rep.ByClass[string(r.Scenario.Class)]++
		if !r.OK() {
			rep.Failed++
			if opts.ReproDir != "" {
				path, err := writeReproducer(opts.ReproDir, opts.Seed, r)
				if err != nil {
					return nil, err
				}
				rep.ReproPaths = append(rep.ReproPaths, path)
			}
		}
	}
	return rep, nil
}

// Reproducer is the persisted form of one failing scenario: enough to
// re-run the exact case without the campaign that found it.
type Reproducer struct {
	// CampaignSeed and Index locate the failure in its campaign.
	CampaignSeed uint64 `json:"campaign_seed"`
	Index        int    `json:"index"`
	// Scenario is the minimized failing case (falls back to the
	// original when shrinking lost the failure).
	Scenario *Scenario `json:"scenario"`
	// Failures are the checks the scenario violates.
	Failures []string `json:"failures"`
	// Original is the unshrunk scenario, kept for context.
	Original *Scenario `json:"original,omitempty"`
}

// writeReproducer persists one failure as ReproDir/repro-<index>.json.
func writeReproducer(dir string, seed uint64, r *ScenarioResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rep := Reproducer{
		CampaignSeed: seed,
		Index:        r.Index,
		Scenario:     r.Scenario,
		Failures:     r.Failures,
	}
	if r.Shrunk != nil && len(r.ShrunkFailures) > 0 {
		rep.Scenario = r.Shrunk
		rep.Failures = r.ShrunkFailures
		rep.Original = r.Scenario
	}
	path := filepath.Join(dir, fmt.Sprintf("repro-%d.json", r.Index))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadReproducer reads a reproducer file.
func LoadReproducer(path string) (*Reproducer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Reproducer
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("verify: %s: %w", path, err)
	}
	if rep.Scenario == nil {
		return nil, fmt.Errorf("verify: %s: reproducer has no scenario", path)
	}
	if err := rep.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("verify: %s: %w", path, err)
	}
	return &rep, nil
}
