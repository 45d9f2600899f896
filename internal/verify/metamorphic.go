package verify

import (
	"fmt"
	"math"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/scenario"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// analyzeMem runs the graph analyzer over in-memory traces.
func analyzeMem(traces []*trace.MemTrace, m *core.Model, opts core.Options) (*core.Result, error) {
	set, err := trace.SetFromMem(traces)
	if err != nil {
		return nil, err
	}
	return core.Analyze(set, m, opts)
}

// ZeroIdentity asserts the paper's base invariant: analyzing a trace
// under an empty perturbation model reproduces the observed schedule
// exactly — every per-rank delay and the makespan delay are zero.
func ZeroIdentity(traces []*trace.MemTrace) error {
	res, err := analyzeMem(traces, &core.Model{}, core.Options{})
	if err != nil {
		return fmt.Errorf("zero-identity: %w", err)
	}
	for r := range res.Ranks {
		//mpg:lint-ignore floateq zero identity is an exact contract: the empty model must yield bitwise-zero delay
		if d := res.Ranks[r].FinalDelay; d != 0 {
			return fmt.Errorf("zero-identity: rank %d has delay %g under the empty model", r, d)
		}
	}
	//mpg:lint-ignore floateq zero identity is an exact contract: the empty model must yield bitwise-zero makespan delay
	if res.MakespanDelay != 0 {
		return fmt.Errorf("zero-identity: makespan delay %g under the empty model", res.MakespanDelay)
	}
	return nil
}

// Monotonicity asserts that doubling every constant delta never
// shrinks any rank's delay: with constant (deterministic) deltas the
// propagation is a composition of + and max, both monotone, so delays
// are pointwise monotone in the perturbation magnitude.
func Monotonicity(sc *Scenario, traces []*trace.MemTrace) error {
	run := func(k float64) (*core.Result, error) {
		m, err := sc.scaledFile(k).Model()
		if err != nil {
			return nil, err
		}
		return analyzeMem(traces, m, core.Options{})
	}
	r1, err := run(1)
	if err != nil {
		return fmt.Errorf("monotonicity: %w", err)
	}
	r2, err := run(2)
	if err != nil {
		return fmt.Errorf("monotonicity: %w", err)
	}
	const eps = 1e-9
	for r := range r1.Ranks {
		d1, d2 := r1.Ranks[r].FinalDelay, r2.Ranks[r].FinalDelay
		if d1 < -eps {
			return fmt.Errorf("monotonicity: rank %d has negative delay %g under non-negative deltas", r, d1)
		}
		if d2+eps < d1 {
			return fmt.Errorf("monotonicity: rank %d delay shrank from %g to %g when deltas doubled", r, d1, d2)
		}
	}
	if r2.MakespanDelay+eps < r1.MakespanDelay {
		return fmt.Errorf("monotonicity: makespan delay shrank from %g to %g when deltas doubled", r1.MakespanDelay, r2.MakespanDelay)
	}
	return nil
}

// OrderPreservation asserts the paper's §4.3 guarantee end to end:
// even under negative perturbations (AllowNegative with a symmetric
// uniform distribution) the perturbed per-rank event order equals the
// traced order — each rank's perturbed end times, observed through
// Options.Interval, never decrease.
func OrderPreservation(traces []*trace.MemTrace, magnitude int64, seed uint64) error {
	if magnitude <= 0 {
		magnitude = 500
	}
	m := &core.Model{
		Seed:          seed,
		OSNoise:       dist.Uniform{Low: -float64(magnitude), High: float64(magnitude)},
		MsgLatency:    dist.Uniform{Low: -float64(magnitude), High: float64(magnitude)},
		AllowNegative: true,
	}
	last := map[int]float64{}
	var violation error
	opts := core.Options{Interval: func(p core.IntervalPoint) {
		perturbed := float64(p.OrigEnd) + p.EndDelay
		if prev, ok := last[p.Rank]; ok && perturbed < prev-1e-6 && violation == nil {
			violation = fmt.Errorf("order-preservation: rank %d event %d ends at %g before its predecessor at %g",
				p.Rank, p.Event, perturbed, prev)
		}
		last[p.Rank] = perturbed
	}}
	if _, err := analyzeMem(traces, m, opts); err != nil {
		return fmt.Errorf("order-preservation: %w", err)
	}
	return violation
}

// Telescoping asserts the critical-path identities: the per-step
// deltas of the recorded argmax chain telescope exactly to the sink
// delay, as do the per-kind and per-rank blame aggregates, and the
// reported makespan delay equals SinkDelay + SinkOffset.
func Telescoping(traces []*trace.MemTrace, f *scenario.File) error {
	m, err := f.Model()
	if err != nil {
		return fmt.Errorf("telescoping: %w", err)
	}
	res, err := analyzeMem(traces, m, core.Options{RecordCritPath: true})
	if err != nil {
		return fmt.Errorf("telescoping: %w", err)
	}
	cp := res.CritPath
	if cp == nil {
		return fmt.Errorf("telescoping: analysis returned no critical path")
	}
	eps := 1e-6 * (1 + math.Abs(cp.SinkDelay))
	var sumDelta, sumKind, sumRank float64
	prev := 0.0
	for i, st := range cp.Steps {
		sumDelta += st.Delta
		if i == 0 {
			//mpg:lint-ignore floateq the critical path's source step carries an exact zero delta by construction
			if st.Delta != 0 {
				return fmt.Errorf("telescoping: source step has nonzero delta %g", st.Delta)
			}
		} else if math.Abs(st.Delay-(prev+st.Delta)) > eps {
			return fmt.Errorf("telescoping: step %d delay %g != previous %g + delta %g", i, st.Delay, prev, st.Delta)
		}
		prev = st.Delay
	}
	for _, v := range cp.KindBlame {
		sumKind += v
	}
	for _, v := range cp.RankBlame {
		sumRank += v
	}
	sums := []struct {
		what string
		sum  float64
	}{{"step deltas", sumDelta}, {"kind blame", sumKind}, {"rank blame", sumRank}}
	for _, s := range sums {
		if math.Abs(s.sum-cp.SinkDelay) > eps {
			return fmt.Errorf("telescoping: %s sum %g != sink delay %g", s.what, s.sum, cp.SinkDelay)
		}
	}
	if math.Abs(res.MakespanDelay-(cp.SinkDelay+cp.SinkOffset)) > eps {
		return fmt.Errorf("telescoping: makespan delay %g != sink delay %g + sink offset %g",
			res.MakespanDelay, cp.SinkDelay, cp.SinkOffset)
	}
	return nil
}

// ExplicitBounded asserts the Fig. 4 bounding relation: under constant
// non-negative deltas the explicit (dissemination/binomial) collective
// model never predicts more delay than the compact hub model, which
// charges every participant the worst participant's full per-round
// cost. Traces containing rooted collectives are skipped (the compact
// model's single-round Reduce simplification is not an upper bound for
// the explicit binomial tree).
func ExplicitBounded(traces []*trace.MemTrace, f *scenario.File) error {
	for _, mt := range traces {
		for _, rec := range mt.Records {
			if rec.Kind.IsRooted() {
				return nil
			}
		}
	}
	run := func(mode string) (*core.Result, error) {
		g := *f
		g.Collectives = mode
		m, err := g.Model()
		if err != nil {
			return nil, err
		}
		return analyzeMem(traces, m, core.Options{})
	}
	approx, err := run("approx")
	if err != nil {
		return fmt.Errorf("explicit-bounded: %w", err)
	}
	explicit, err := run("explicit")
	if err != nil {
		return fmt.Errorf("explicit-bounded: %w", err)
	}
	for r := range approx.Ranks {
		a, e := approx.Ranks[r].FinalDelay, explicit.Ranks[r].FinalDelay
		if e > a+1e-6 {
			return fmt.Errorf("explicit-bounded: rank %d: explicit delay %g exceeds compact delay %g", r, e, a)
		}
	}
	return nil
}

// ButterflyBound asserts the Fig. 4 relation from the other side: a
// hand-written butterfly (explicit hypercube Sendrecv stages — the
// point-to-point realization of Allreduce) suffers at least as much
// latency delay as the same iteration structure using the compact
// collective, because each p2p stage pays the data path plus an
// acknowledgment while the compact hub charges exactly
// ceil(log2 p) × Δλ per iteration.
func ButterflyBound(ranks, iterations int, bytes, compute, deltaLatency int64) error {
	if ranks < 2 || ranks&(ranks-1) != 0 {
		return fmt.Errorf("butterfly-bound: ranks must be a power of two >= 2, got %d", ranks)
	}
	if deltaLatency <= 0 {
		deltaLatency = 500
	}
	cfg := mpi.Config{Machine: machine.Config{NRanks: ranks, Seed: 1}}
	bfProg, err := workloads.BuildByName("butterfly", workloads.Options{
		Iterations: iterations, Bytes: bytes, Compute: compute,
	})
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	bfRun, err := mpi.Run(cfg, bfProg)
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	compact := func(r *mpi.Rank) error {
		for k := 0; k < iterations; k++ {
			r.Compute(compute)
			r.Allreduce(bytes)
		}
		return nil
	}
	cRun, err := mpi.Run(cfg, compact)
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	m, err := scenario.Constants("butterfly-bound", float64(deltaLatency), 0, 0).Model()
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	bf, err := analyzeMem(bfRun.Traces, m, core.Options{})
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	cc, err := analyzeMem(cRun.Traces, m, core.Options{})
	if err != nil {
		return fmt.Errorf("butterfly-bound: %w", err)
	}
	for r := range bf.Ranks {
		if bf.Ranks[r].FinalDelay+1e-6 < cc.Ranks[r].FinalDelay {
			return fmt.Errorf("butterfly-bound: rank %d: explicit butterfly delay %g below compact collective delay %g",
				r, bf.Ranks[r].FinalDelay, cc.Ranks[r].FinalDelay)
		}
	}
	return nil
}

// metaFile picks the perturbation the non-differential properties run
// under: the scenario's own deltas, or a representative constant mix
// when the scenario is the zero class (whose own model would make
// every property trivially about zeros).
func metaFile(sc *Scenario) *scenario.File {
	if sc.Class == ClassZero {
		return scenario.Constants(sc.Name()+"/meta", 300, 0.01, 100)
	}
	return sc.PerturbationFile()
}

// Metamorphic runs the property suite against one scenario's trace.
// The returned strings are property violations; a non-nil error means
// the harness itself failed.
func Metamorphic(sc *Scenario) ([]string, error) {
	traces, err := sc.BuildMemTraces()
	if err != nil {
		return nil, err
	}
	var failures []string
	check := func(err error) {
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	check(ZeroIdentity(traces))
	check(Monotonicity(sc, traces))
	check(OrderPreservation(traces, sc.NoiseCycles, sc.MachineSeed))
	check(Telescoping(traces, metaFile(sc)))
	check(ExplicitBounded(traces, metaFile(sc)))
	if sc.Workload == "butterfly" {
		check(ButterflyBound(sc.Ranks, sc.Iterations, sc.Bytes, sc.Compute, sc.DeltaLatency))
	}
	return failures, nil
}
