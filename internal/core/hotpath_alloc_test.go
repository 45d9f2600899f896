package core

import (
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// The //mpg:hotpath annotations (enforced by internal/analysis's
// hotpathalloc analyzer) promise that the shared propagation kernels
// never allocate on the warm path. These guards pin that promise:
// unlike the end-to-end ReplayCompiled budget they demand exactly
// zero, because a single stray allocation in a kernel multiplies by
// the event count and then by the Monte Carlo trial count.

func kernelSampler(nranks int) *sampler {
	return newSampler(&Model{
		Seed:            17,
		OSNoise:         dist.Exponential{MeanValue: 40},
		MsgLatency:      dist.Exponential{MeanValue: 150},
		PerByte:         dist.Constant{C: 0.02},
		CollectiveBytes: true,
	}, nranks)
}

// TestResolveExplicitKernelAllocs is the guard the lint suppressions
// on resolveExplicitKernel's closures point at: every explicit
// collective pattern resolves with zero allocations once the scratch
// is warm (so the adopt/bytesOf/msgDelta closures are stack-allocated,
// not heap-escaping environments).
func TestResolveExplicitKernelAllocs(t *testing.T) {
	const p = 8
	smp := kernelSampler(p)
	in := make([]collIn, p)
	for i := range in {
		in[i] = collIn{rank: i, startD: float64(i * 10), startAttr: Attribution{OwnNoise: float64(i)}}
	}
	sc := &collScratch{}
	outD := make([]float64, p)
	outAttr := make([]Attribution, p)
	outPred := make([]int32, p)
	kinds := []trace.Kind{
		trace.KindBarrier, trace.KindBcast, trace.KindReduce, trace.KindAllreduce,
		trace.KindGather, trace.KindAllgather, trace.KindScatter, trace.KindAlltoall,
		trace.KindScan, trace.KindCommSplit,
	}
	// Warm the scratch arrays once.
	resolveExplicitKernel(smp, trace.KindAllreduce, 1024, 0, in, sc, outD, outAttr, outPred)
	for _, kind := range kinds {
		kind := kind
		allocs := testing.AllocsPerRun(20, func() {
			resolveExplicitKernel(smp, kind, 1024, 0, in, sc, outD, outAttr, outPred)
		})
		if allocs != 0 {
			t.Errorf("resolveExplicitKernel(%v) allocates %.1f objects/call; want 0", kind, allocs)
		}
	}
}

func TestResolveApproxKernelAllocs(t *testing.T) {
	const p = 8
	smp := kernelSampler(p)
	in := make([]collIn, p)
	for i := range in {
		in[i] = collIn{rank: i, startD: float64(i * 10)}
	}
	outD := make([]float64, p)
	outAttr := make([]Attribution, p)
	outPred := make([]int32, p)
	for _, kind := range []trace.Kind{trace.KindAllreduce, trace.KindReduce} {
		kind := kind
		allocs := testing.AllocsPerRun(20, func() {
			resolveApproxKernel(smp, kind, 2048, in, outD, outAttr, outPred)
		})
		if allocs != 0 {
			t.Errorf("resolveApproxKernel(%v) allocates %.1f objects/call; want 0", kind, allocs)
		}
	}
}

// TestCompletionKernelAllocs covers the point-to-point kernels and the
// merge/attribution helpers in both propagation modes.
func TestCompletionKernelAllocs(t *testing.T) {
	x := &xfer{
		sendStartD: 100, recvPostD: 250,
		sendAttr: Attribution{OwnNoise: 30},
		recvAttr: Attribution{OwnNoise: 50},
		dLat1:    40, dPerByte: 10, dLat2: 25, dOS2: 5,
	}
	var rr RankResult
	var reg RegionStats
	for _, mode := range []PropagationMode{PropagationAdditive, PropagationAnchored} {
		mode := mode
		allocs := testing.AllocsPerRun(50, func() {
			x.resolveCompletion()
			local, remote, la, ra := sendCompletionKernel(mode, 120, Attribution{OwnNoise: 20}, 7, 90, x)
			_ = mergeStats(&rr, &reg, local, remote)
			local, remote, la, ra = recvCompletionKernel(mode, 140, Attribution{OwnNoise: 25}, 80, x)
			_ = mergeStats(&rr, &reg, local, remote)
			d, a := combineLocalKernel(mode, local, ra, 12, 60)
			_, _, _ = d, a, la
		})
		if allocs != 0 {
			t.Errorf("completion kernels (%v) allocate %.1f objects/iteration; want 0", mode, allocs)
		}
	}
}

// TestSampleFastAllocs pins the devirtualized scalar draw helper: the
// type switch must not box, and the ziggurat draws must stay on the
// stack for every devirtualized family.
func TestSampleFastAllocs(t *testing.T) {
	r := dist.NewRNG(11)
	dists := []dist.Distribution{
		dist.Exponential{MeanValue: 100},
		dist.Normal{Mu: 0, Sigma: 1},
		dist.Uniform{Low: 0, High: 1},
		dist.Constant{C: 3},
		dist.LogNormal{Mu: 0, Sigma: 0.5}, // default branch
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for _, d := range dists {
			sink += sampleFast(d, r)
		}
	})
	if allocs != 0 {
		t.Errorf("sampleFast allocates %.1f objects/iteration; want 0", allocs)
	}
	_ = sink
}

// TestReplayStateResetAllocs pins the pooled replay state's re-seed
// path at zero: Reseed/ForkNamedInto write into the pooled rngBacking
// array instead of constructing generators.
func TestReplayStateResetAllocs(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 8, workloads.Options{Iterations: 2})
	set, release := snap.Acquire()
	c, err := Compile(set, Options{})
	release()
	if err != nil {
		t.Fatal(err)
	}
	st := newReplayState(c)
	m := &Model{Seed: 23, OSNoise: dist.Exponential{MeanValue: 30}}
	st.reset(m)
	allocs := testing.AllocsPerRun(50, func() { st.reset(m) })
	if allocs != 0 {
		t.Errorf("replayState.reset allocates %.1f objects/call; want 0", allocs)
	}
}

// TestAnalyzeAllocsPerEvent pins the streaming analyzer's per-record
// bookkeeping: region stats come from a per-rank cache, requests from
// a dense table, transfers from slabs, and critical-path nodes from a
// block log, so allocations grow with slabs and blocks, not with
// records. Before those changes the analyzer made ~1.4 allocations per
// event on this trace; the budget is 0.6.
func TestAnalyzeAllocsPerEvent(t *testing.T) {
	snap := snapWorkload(t, "stencil2d", 64, workloads.Options{Iterations: 10})
	model := &Model{
		Seed:       9,
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
	allocs := testing.AllocsPerRun(5, func() {
		set, release := snap.Acquire()
		_, err := Analyze(set, model, Options{RecordCritPath: true})
		release()
		if err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(snap.Events())
	t.Logf("%.0f allocations per analysis of %d events: %.3f per event", allocs, snap.Events(), perEvent)
	if perEvent > 0.6 {
		t.Fatalf("Analyze allocates %.3f objects per event; want <= 0.6", perEvent)
	}
}
