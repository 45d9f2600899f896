package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// snapWorkload runs a named workload and snapshots its trace so the
// equivalence tests can analyze it any number of times.
func snapWorkload(t *testing.T, name string, nranks int, opts workloads.Options) *trace.Snapshot {
	t.Helper()
	prog, err := workloads.BuildByName(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return snapProgram(t, nranks, prog)
}

func snapProgram(t *testing.T, nranks int, prog mpi.Program) *trace.Snapshot {
	t.Helper()
	res, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: nranks, Seed: 7}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := trace.SnapshotFromMem(res.Traces)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// collZoo exercises every collective kind, markers (region stats and
// the marker-switches-region-before-its-own-event rule), and mixed
// point-to-point traffic.
func collZoo(r *mpi.Rank) error {
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() + r.Size() - 1) % r.Size()
	r.Marker(1)
	r.Compute(500)
	r.Bcast(0, 1024)
	r.Reduce(1, 2048)
	r.Compute(300)
	r.Scan(64)
	r.Gather(2, 256)
	r.Scatter(0, 512)
	r.Allgather(128)
	r.Marker(2)
	r.Compute(200)
	r.Sendrecv(next, 0, 4096, prev, 0)
	r.Allreduce(8)
	r.Alltoall(64)
	r.Barrier()
	return nil
}

// equivalenceModels is the model grid the byte-identity tests sweep:
// sampled continuous noise, quantized noise with a per-rank override,
// heavy per-byte terms with collective payload charging, negative
// perturbations exercising the §4.3 clamps, and the laws ReplayCompiled
// draws inline.
func equivalenceModels() []*Model {
	base := []*Model{
		{Seed: 3}, // zero model
		{
			Seed:       11,
			OSNoise:    dist.Exponential{MeanValue: 60},
			MsgLatency: dist.Exponential{MeanValue: 250},
			PerByte:    dist.Exponential{MeanValue: 0.05},
		},
		{
			Seed:            12,
			OSNoise:         dist.Exponential{MeanValue: 40},
			RankOSNoise:     []dist.Distribution{nil, dist.Pareto{Xm: 100, Alpha: 1.8}},
			NoiseQuantum:    500,
			MsgLatency:      dist.Uniform{Low: 50, High: 400},
			PerByte:         dist.Constant{C: 0.02},
			CollectiveBytes: true,
		},
		{
			Seed:          13,
			OSNoise:       dist.Normal{Mu: 0, Sigma: 80},
			MsgLatency:    dist.Normal{Mu: 100, Sigma: 150},
			AllowNegative: true,
		},
		{
			// The only laws ReplayCompiled draws inline at both op
			// sites (fastNoise and fastMatch): exponential noise and
			// latency, constant per-byte, no per-rank or quantum noise.
			Seed:       14,
			OSNoise:    dist.Exponential{MeanValue: 300},
			MsgLatency: dist.Exponential{MeanValue: 500},
			PerByte:    dist.Constant{C: 0.5},
		},
	}
	var out []*Model
	for _, m := range base {
		for _, prop := range []PropagationMode{PropagationAdditive, PropagationAnchored} {
			for _, coll := range []CollectiveMode{CollectiveApprox, CollectiveExplicit} {
				mm := m.Clone()
				mm.Propagation = prop
				mm.Collectives = coll
				out = append(out, mm)
			}
		}
	}
	return out
}

func modelLabel(m *Model) string {
	return fmt.Sprintf("seed=%d/%s/%s/quant=%d/neg=%v",
		m.Seed, m.Propagation, m.Collectives, m.NoiseQuantum, m.AllowNegative)
}

// TestReplayCompiledMatchesAnalyze is the tentpole correctness pin:
// over every workload shape and model in the grid, ReplayCompiled must
// be byte-identical to Analyze — delays, attribution, region stats,
// order-violation clamps, warnings, critical path, and the interval
// stream. Each model replays twice so the pooled-state reuse path is
// exercised, not just the cold path.
func TestReplayCompiledMatchesAnalyze(t *testing.T) {
	snaps := map[string]*trace.Snapshot{
		"tokenring": snapWorkload(t, "tokenring", 8, workloads.Options{Iterations: 4}),
		"stencil1d": snapWorkload(t, "stencil1d", 8, workloads.Options{Iterations: 6, CollEvery: 2}),
		"bsp":       snapWorkload(t, "bsp", 6, workloads.Options{Iterations: 3}),
		"collzoo":   snapProgram(t, 6, collZoo),
	}
	for name, snap := range snaps {
		t.Run(name, func(t *testing.T) {
			c, err := Compile(snap.Set(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.Events() != snap.Events() {
				t.Fatalf("compiled %d events, trace has %d", c.Events(), snap.Events())
			}
			for _, model := range equivalenceModels() {
				t.Run(modelLabel(model), func(t *testing.T) {
					var ivA []IntervalPoint
					want, err := Analyze(snap.Set(), model, Options{
						RecordCritPath: true,
						Interval:       func(p IntervalPoint) { ivA = append(ivA, p) },
					})
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 2; i++ {
						var ivB []IntervalPoint
						got, err := ReplayCompiled(c, model, Options{
							RecordCritPath: true,
							Interval:       func(p IntervalPoint) { ivB = append(ivB, p) },
						})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("replay %d diverged from Analyze:\n%s", i, diffResults(want, got))
						}
						if !reflect.DeepEqual(ivA, ivB) {
							t.Fatalf("replay %d interval stream diverged (%d vs %d points)", i, len(ivA), len(ivB))
						}
					}
				})
			}
		})
	}
}

// diffResults renders an actionable summary of the first fields that
// differ between two results.
func diffResults(want, got *Result) string {
	s := ""
	add := func(field string, a, b interface{}) {
		if !reflect.DeepEqual(a, b) {
			s += fmt.Sprintf("  %s: analyze=%v replay=%v\n", field, a, b)
		}
	}
	add("NRanks", want.NRanks, got.NRanks)
	add("Events", want.Events, got.Events)
	add("MaxFinalDelay", want.MaxFinalDelay, got.MaxFinalDelay)
	add("MeanFinalDelay", want.MeanFinalDelay, got.MeanFinalDelay)
	add("MakespanDelay", want.MakespanDelay, got.MakespanDelay)
	add("DelayStats", want.DelayStats, got.DelayStats)
	add("WindowHighWater", want.WindowHighWater, got.WindowHighWater)
	add("OrderViolations", want.OrderViolations, got.OrderViolations)
	add("Warnings", want.Warnings, got.Warnings)
	for r := 0; r < want.NRanks && r < got.NRanks; r++ {
		add(fmt.Sprintf("Ranks[%d]", r), want.Ranks[r], got.Ranks[r])
	}
	add("len(Regions)", len(want.Regions), len(got.Regions))
	for k, v := range want.Regions {
		if g, ok := got.Regions[k]; ok {
			add(fmt.Sprintf("Regions[%v]", k), *v, *g)
		} else {
			s += fmt.Sprintf("  Regions[%v]: missing in replay\n", k)
		}
	}
	add("CritPath", want.CritPath, got.CritPath)
	if s == "" {
		s = "  (results differ in unexpanded fields)\n"
	}
	return s
}

// TestReplayCompiledGraphSinkRejected: graph export needs the
// streaming engine; the compiled replayer must refuse, not silently
// skip.
func TestReplayCompiledGraphSinkRejected(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 4, workloads.Options{Iterations: 2})
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayCompiled(c, &Model{}, Options{Graph: discardSink{}}); err == nil {
		t.Fatal("expected an error for a graph sink on the compiled replayer")
	}
}

type discardSink struct{}

func (discardSink) AddNode(NodeRef, int64, trace.Record)              {}
func (discardSink) AddEdge(NodeRef, NodeRef, EdgeKind, int64, string) {}

// TestReplayCompiledConcurrent replays one compiled program from many
// goroutines with the same model; every result must be identical (the
// determinism claim behind parallel Monte Carlo). Run with -race.
func TestReplayCompiledConcurrent(t *testing.T) {
	snap := snapWorkload(t, "stencil1d", 8, workloads.Options{Iterations: 4, CollEvery: 2})
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{
		Seed:       21,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Exponential{MeanValue: 200},
	}
	want, err := ReplayCompiled(c, model, Options{RecordCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				got, err := ReplayCompiled(c, model, Options{RecordCritPath: true})
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(want, got) {
					errs <- fmt.Errorf("concurrent replay diverged:\n%s", diffResults(want, got))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReplayParallelMatchesCompiled pins the multi-core replay path:
// trials fanned out with parallel.Map over one shared Compiled, as
// sweeps and experiment grids run them. Across every workload shape,
// every model in the equivalence grid and workers in {1, 2, 4, 8},
// each parallel trial must be byte-identical to a serial
// ReplayCompiled — the full Result plus the interval stream. Each
// worker runs two trials, so pooled-state reuse under concurrency is
// exercised too. Run with -race.
func TestReplayParallelMatchesCompiled(t *testing.T) {
	snaps := map[string]*trace.Snapshot{
		"tokenring": snapWorkload(t, "tokenring", 8, workloads.Options{Iterations: 4}),
		"stencil1d": snapWorkload(t, "stencil1d", 8, workloads.Options{Iterations: 6, CollEvery: 2}),
		"bsp":       snapWorkload(t, "bsp", 6, workloads.Options{Iterations: 3}),
		"collzoo":   snapProgram(t, 6, collZoo),
	}
	type trial struct {
		res *Result
		iv  []IntervalPoint
	}
	replay := func(c *Compiled, model *Model) (trial, error) {
		var tr trial
		res, err := ReplayCompiled(c, model, Options{
			RecordCritPath: true,
			Interval:       func(p IntervalPoint) { tr.iv = append(tr.iv, p) },
		})
		tr.res = res
		return tr, err
	}
	for name, snap := range snaps {
		t.Run(name, func(t *testing.T) {
			c, err := Compile(snap.Set(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range equivalenceModels() {
				t.Run(modelLabel(model), func(t *testing.T) {
					want, err := replay(c, model)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 2, 4, 8} {
						got, err := parallel.Map(2*workers, parallel.Options{Workers: workers}, func(int) (trial, error) {
							return replay(c, model)
						})
						if err != nil {
							t.Fatal(err)
						}
						for i, g := range got {
							if !reflect.DeepEqual(want.res, g.res) {
								t.Fatalf("workers=%d trial %d diverged from serial ReplayCompiled:\n%s",
									workers, i, diffResults(want.res, g.res))
							}
							if !reflect.DeepEqual(want.iv, g.iv) {
								t.Fatalf("workers=%d trial %d interval stream diverged (%d vs %d points)",
									workers, i, len(want.iv), len(g.iv))
							}
						}
					}
				})
			}
		})
	}
}

// TestReplayCompiledAllocs pins the near-zero-allocation claim on the
// warm replay path. The expected steady state is ~6 allocations: the
// Result, its Ranks slice, the Regions map and its stats backing, and
// the timer/registry-free bookkeeping; the bound leaves headroom of
// roughly 2x for runtime/map internals so the guard fails on real
// regressions (per-event or per-message allocation would add
// thousands), not on Go version drift.
func TestReplayCompiledAllocs(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 8, workloads.Options{Iterations: 8})
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{
		Seed:       5,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Exponential{MeanValue: 200},
	}
	// Warm the pool.
	if _, err := ReplayCompiled(c, model, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ReplayCompiled(c, model, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("warm ReplayCompiled allocates %.1f objects/replay; want <= 16", allocs)
	}
}

// TestReplayCompiledTimelineOffAllocs pins the timeline-off contract:
// a replay with no Interval sink stays inside the existing hot-path
// budget even when the same pooled state has previously serviced an
// interval-recording replay. The per-point IntervalPoint is stack-
// built only when the sink is set, so disabled runs pay nothing.
func TestReplayCompiledTimelineOffAllocs(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 8, workloads.Options{Iterations: 8})
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	model := &Model{
		Seed:       5,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Exponential{MeanValue: 200},
	}
	// Warm the pool with an interval-recording replay so the guard also
	// proves recording leaves no allocation residue in the pooled state.
	sink := func(IntervalPoint) {}
	if _, err := ReplayCompiled(c, model, Options{Interval: sink}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ReplayCompiled(c, model, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("warm timeline-off ReplayCompiled allocates %.1f objects/replay; want <= 16", allocs)
	}
}

// TestCompileConsumesSet documents single-use semantics: a Compile
// exhausts its Set exactly like Analyze does.
func TestCompileConsumesSet(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 4, workloads.Options{Iterations: 2})
	set := snap.Set()
	if _, err := Compile(set, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(set, Options{}); err == nil {
		t.Fatal("expected the second Compile over one Set to fail (sets are single-use)")
	}
}
