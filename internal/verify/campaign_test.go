package verify

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCampaignPasses is the in-tree slice of the mpg-verify campaign:
// every generated scenario must clear the linter, the differential
// bounds, and the metamorphic properties.
func TestCampaignPasses(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 6
	}
	rep, err := Campaign(CampaignOptions{Seed: 1, N: n})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, r := range rep.Results {
			for _, f := range r.Failures {
				t.Errorf("scenario %d (%s): %s", r.Index, r.Scenario.Name(), f)
			}
		}
	}
	if rep.Checked != n {
		t.Fatalf("checked %d, want %d", rep.Checked, n)
	}
}

// TestCampaignParallelMatchesSerial pins that worker count never
// changes results: scenario generation is index-seeded and results
// are reassembled in order, so a 4-worker campaign must equal the
// serial one bit for bit. Run under -race this also exercises the
// harness's concurrency safety.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	serial, err := Campaign(CampaignOptions{Seed: 42, N: n, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Campaign(CampaignOptions{Seed: 42, N: n, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel campaign diverged from serial:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

func TestScenarioRoundTrip(t *testing.T) {
	sc := fixedScenario(ClassMixed)
	path := filepath.Join(t.TempDir(), "sc.json")
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario: %+v vs %+v", sc, back)
	}
}

func TestReproducerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := fixedScenario(ClassLatency)
	shrunk := fixedScenario(ClassLatency)
	shrunk.Iterations = 1
	res := &ScenarioResult{
		Index:          3,
		Scenario:       orig,
		Failures:       []string{"differential: rank 0: synthetic"},
		Shrunk:         shrunk,
		ShrunkFailures: []string{"differential: rank 0: synthetic"},
	}
	path, err := writeReproducer(dir, 99, res)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := LoadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CampaignSeed != 99 || rep.Index != 3 {
		t.Fatalf("identity lost: %+v", rep)
	}
	if !reflect.DeepEqual(rep.Scenario, shrunk) {
		t.Fatalf("reproducer should carry the shrunk scenario, got %+v", rep.Scenario)
	}
	if !reflect.DeepEqual(rep.Original, orig) {
		t.Fatalf("reproducer should keep the original scenario, got %+v", rep.Original)
	}
}

// TestShrinkMinimizes drives the shrinker with a synthetic predicate
// and checks it reaches the minimum the predicate allows.
func TestShrinkMinimizes(t *testing.T) {
	sc := fixedScenario(ClassLatency)
	sc.Iterations = 6
	sc.Bytes = 8000
	sc.Compute = 40_000
	// Fails whenever the workload still sends at least one message:
	// the minimum is a 1-iteration, 1-byte, tiny scenario.
	evals := 0
	shrunk := Shrink(sc, func(c *Scenario) bool {
		evals++
		return c.Iterations >= 1
	}, 200)
	if shrunk.Iterations != 1 {
		t.Errorf("iterations not minimized: %d", shrunk.Iterations)
	}
	if shrunk.Bytes != 1 || shrunk.Compute != 1 {
		t.Errorf("payload/compute not minimized: bytes=%d compute=%d", shrunk.Bytes, shrunk.Compute)
	}
	if shrunk.Validate() != nil {
		t.Errorf("shrunk scenario invalid: %v", shrunk.Validate())
	}
	if evals > 200 {
		t.Errorf("budget exceeded: %d evaluations", evals)
	}
}

// TestShrinkPreservesFailure: the shrunk scenario must still fail the
// predicate it was shrunk against.
func TestShrinkPreservesFailure(t *testing.T) {
	sc := fixedScenario(ClassMixed)
	pred := func(c *Scenario) bool { return c.DeltaLatency >= 1 && c.Ranks >= 2 }
	shrunk := Shrink(sc, pred, 100)
	if !pred(shrunk) {
		t.Fatalf("shrinking lost the failure: %+v", shrunk)
	}
	if shrunk.Ranks != 2 {
		t.Errorf("ranks not minimized to the predicate floor: %d", shrunk.Ranks)
	}
}

// TestCheckScenarioFindsNothing pins the full per-scenario check on
// the fixed cases (the unit the campaign fans out).
func TestCheckScenarioFindsNothing(t *testing.T) {
	for _, class := range Classes {
		if failures := CheckScenario(fixedScenario(class)); len(failures) > 0 {
			t.Errorf("%s:\n%s", class, strings.Join(failures, "\n"))
		}
	}
}
