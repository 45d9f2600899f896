package verify

import "testing"

// TestCompiledEquivalenceClasses runs the compiled-vs-streaming check
// over one fixed scenario per perturbation class. Any divergence here
// means the compiled tape or the replay kernels drifted from the
// streaming analyzer.
func TestCompiledEquivalenceClasses(t *testing.T) {
	for _, class := range []Class{ClassLatency, ClassBandwidth, ClassNoise, ClassMixed} {
		sc := fixedScenario(class)
		failures, err := CompiledEquivalence(sc)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		for _, f := range failures {
			t.Errorf("%s: %s", class, f)
		}
	}
}

// TestCompiledEquivalenceCollectiveWorkload points the check at a
// collective-heavy scenario so the collective resolve tape (approx and
// explicit) is exercised, not just point-to-point matching.
func TestCompiledEquivalenceCollectiveWorkload(t *testing.T) {
	sc := fixedScenario(ClassMixed)
	sc.Workload = "bsp"
	sc.Ranks = 6
	failures, err := CompiledEquivalence(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		t.Error(f)
	}
}
