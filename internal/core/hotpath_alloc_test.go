package core

import (
	"runtime"
	"testing"
	"unsafe"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// The //mpg:hotpath annotations (enforced by internal/analysis's
// hotpathprop analyzer) promise that the shared propagation kernels
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

// TestCompletionKernelAllocs covers the begin, match, end-step, merge
// and commit kernels in both propagation modes.
func TestCompletionKernelAllocs(t *testing.T) {
	x := &xfer{
		sendStartD: 100, recvPostD: 250,
		sendAttr: Attribution{OwnNoise: 30},
		recvAttr: Attribution{OwnNoise: 50},
	}
	res := &Result{Ranks: make([]RankResult, 2)}
	rr := &res.Ranks[1]
	var reg RegionStats
	for _, mode := range []PropagationMode{PropagationAdditive, PropagationAnchored} {
		smp := kernelSampler(2)
		smp.model.Propagation = mode
		smp.model.NoiseQuantum = 50
		allocs := testing.AllocsPerRun(50, func() {
			d, a := beginKernel(smp, res, 1, 400, 90, Attribution{OwnNoise: 20})
			smp.sampleMatch(x, 64, 1)
			d, a, _, _ = sendCompletionKernel(smp, rr, &reg, 1, d, a, 90, x)
			d, a, _, _ = recvCompletionKernel(mode, rr, &reg, d, a, 80, x)
			d, a, _, _ = collEndKernel(mode, rr, &reg, d, a, 70, 300, Attribution{MsgDelta: 9})
			d, _ = localEndKernel(smp, rr, 1, d, a, 60)
			_ = commitKernel(res, rr, &reg, true, 120, d, 60)
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
	c, err := Compile(snap.Set(), Options{})
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
// pool that reuses freed nodes, so allocations grow with slabs and the
// pool, not with records. Before those changes the analyzer made ~1.4 allocations per
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
		_, err := Analyze(snap.Set(), model, Options{RecordCritPath: true})
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

// TestAnalyzeAllocsPerAnalysis pins the analyzer's fixed cost: a
// what-if sweep asks one trace many questions, so what an analysis
// allocates per rank, per region and per matching queue is paid once
// per point. A Snapshot's readers, rank state, region stats and the
// generator hierarchy come from slabs, and a queue stays in its map
// while its key is in use, so a 128-rank tokenring analysis measures
// about 60 allocations; one object per reader, rank, region, generator
// and fork label measured 944. The bound of 100 fails as soon as any
// of them is allocated per rank again.
func TestAnalyzeAllocsPerAnalysis(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 128, workloads.Options{Iterations: 10})
	model := &Model{Seed: 9, MsgLatency: dist.Constant{C: 300}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(snap.Set(), model, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per analysis of %d events on 128 ranks", allocs, snap.Events())
	if allocs > 100 {
		t.Fatalf("Analyze allocates %.0f objects per analysis; want <= 100", allocs)
	}
}

// TestCritPathBytesPerEvent pins what critical-path recording costs
// the streaming analyzer in memory: the bytes a run allocates with
// RecordCritPath on, minus the bytes it allocates with it off, per
// event. The pool keeps a 40-byte node only while a chain can still
// reach it and reuses the rest, which measures about 11 B per event
// here; one node per record measured about 40.
func TestCritPathBytesPerEvent(t *testing.T) {
	if sz := unsafe.Sizeof(critNode{}); sz > 48 {
		t.Fatalf("critNode is %d bytes; want <= 48", sz)
	}
	snap := snapWorkload(t, "stencil2d", 64, workloads.Options{Iterations: 10})
	model := &Model{
		Seed:       9,
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
	// allocated returns the fewest bytes any of three runs allocated,
	// so that a stray allocation elsewhere cannot inflate the figure.
	allocated := func(crit bool) uint64 {
		var best uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Analyze(snap.Set(), model, Options{RecordCritPath: crit}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
				best = n
			}
		}
		return best
	}
	off, on := allocated(false), allocated(true)
	perEvent := (float64(on) - float64(off)) / float64(snap.Events())
	t.Logf("critical-path recording adds %.1f B per event (%d events)", perEvent, snap.Events())
	if perEvent > 20 {
		t.Fatalf("critical-path recording allocates %.1f B per event; want <= 20", perEvent)
	}
}

// TestCompileBytesPerTapeByte pins what recording the compiled tape
// costs in memory: the bytes Compile allocates beyond a plain Analyze
// of the same trace, over the bytes of the tape it returns. Recording
// into chunks and copying them once into the final slices measures
// about 2.4; growing the slices by append measures about 5.2, and the
// outgrown arrays raise the heap's peak.
func TestCompileBytesPerTapeByte(t *testing.T) {
	snap := snapWorkload(t, "stencil2d", 64, workloads.Options{Iterations: 10})
	// allocated returns the fewest bytes any of three runs of f
	// allocated, so that a stray allocation elsewhere cannot inflate
	// the figure.
	allocated := func(f func() error) uint64 {
		var best uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := f(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
				best = n
			}
		}
		return best
	}
	var c *Compiled
	compile := allocated(func() (err error) {
		c, err = Compile(snap.Set(), Options{})
		return err
	})
	analyze := allocated(func() error {
		_, err := Analyze(snap.Set(), &Model{}, Options{})
		return err
	})
	tape := uint64(len(c.ops))*uint64(unsafe.Sizeof(op{})) +
		uint64(len(c.msgs))*uint64(unsafe.Sizeof(compiledMsg{})) +
		uint64(len(c.colls))*uint64(unsafe.Sizeof(compiledColl{})) +
		uint64(len(c.parts))*uint64(unsafe.Sizeof(compiledCollPart{}))
	ratio := (float64(compile) - float64(analyze)) / float64(tape)
	t.Logf("compile allocates %.2f B per tape byte (%d-byte tape, %d events)", ratio, tape, snap.Events())
	if ratio > 3 {
		t.Fatalf("compile allocates %.2f B per tape byte; want <= 3", ratio)
	}
}
