package sweep

import (
	"runtime"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/workloads"
)

// heapSampleEvery is the trial count between live-heap samples.
const heapSampleEvery = 5

// trialsLiveHeap runs a Monte Carlo ranks sweep of stencil1d at 16 and
// 32 ranks with the given trials per point on one worker. Every
// heapSampleEvery finished trials a forced GC measures the live heap;
// the peak of those samples is returned.
func trialsLiveHeap(t *testing.T, trials int) uint64 {
	t.Helper()
	var peak uint64
	var ms runtime.MemStats
	cfg := Config{
		Workload:        "stencil1d",
		WorkloadOptions: workloads.Options{Iterations: 10},
		Machine:         machine.Config{NRanks: 16, Seed: 1},
		Param:           ParamRanks,
		From:            16, To: 32, Step: 16,
		NoiseMean: 200,
		ModelSeed: 3,
		Trials:    trials,
		Workers:   1,
		Progress: func(done, total int) {
			if done%heapSampleEvery == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatalf("%d trials: no heap sample", trials)
	}
	return peak
}

// TestTrialsLiveHeapBounded pins the bounded-memory claim for Monte
// Carlo sweeps: a point reports one float per trial plus trial 0's
// Result, so the live heap is set by the compiled programs, not by the
// trial count. 16 times the trials must stay within 1.5x of the short
// run's heap. Keeping every trial's Result until the sweep ends grows
// the heap with the trial count.
func TestTrialsLiveHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("live-heap test skipped in -short mode")
	}
	short := trialsLiveHeap(t, 25)
	long := trialsLiveHeap(t, 400)
	ratio := float64(long) / float64(short)
	t.Logf("live heap %.2f MB at 25 trials, %.2f MB at 400 trials (%.2fx)",
		float64(short)/(1<<20), float64(long)/(1<<20), ratio)
	if ratio > 1.5 {
		t.Errorf("live heap grows %.2fx from 25 to 400 trials per point; want <= 1.5x", ratio)
	}
}
