package core

import (
	"errors"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
)

// Batched replay: one walk of the compiled op tape propagates K
// perturbation models at once.
//
// The schedule is sample-invariant (§4.1), so every lane visits the
// same ops in the same order; only the sampled values differ. The
// batch state therefore holds each per-subevent quantity as a flat
// lane-strided array — slot gi of the single replayer becomes the
// K-wide span [gi*K, gi*K+K) — and each tape op is decoded once, its
// delay/attribution update fanned across the K contiguous lanes.
// Equivalence with ReplayCompiled is structural, not approximate:
// every lane owns a full sampler hierarchy seeded exactly as a
// standalone replay would seed it (dist.ForkHierarchyInto over the
// same labels in the same order), and the fan-out loops execute the
// identical FP operation sequence per lane, so lane k's Result is
// byte-identical to ReplayCompiled(c, models[k], opts). The
// batch-vs-single equivalence suite (replay_batch_test.go), the
// verify campaign's CompiledBatchEquivalence check, and the in-band
// mpg-bench -replay-batch gate all pin this.

// DefaultReplayLanes is the lane width ReplayBatch callers use when
// the user does not override it (-replay-lanes). Chosen from the
// mpg-bench -replay-batch sweep over K ∈ {1,4,16,64} on the
// BENCH_replay.json workload: K=16 balances tape-decode amortization
// against cache footprint (K=64 regresses as the lane-strided arrays
// outgrow cache). Per-replay the batch no longer beats the scalar
// compiled path — since the ziggurat/draw-specialization work
// (DESIGN.md §8.2) the specialized scalar replay is slightly faster —
// so the batch's value is structural: one pooled state, one walk, and
// one task-dispatch per K trials (fewer, larger parallel tasks in
// sweeps), with column-wise SampleInto draws over the SoA lane
// layout; see BENCH_replay.json's "batched" trajectory for numbers.
const DefaultReplayLanes = 16

// PickReplayLanes resolves a lane-width setting against the number of
// pending replays: non-positive lanes means auto (DefaultReplayLanes),
// and the width never exceeds the work available. The result is at
// least 1.
func PickReplayLanes(lanes, pending int) int {
	if lanes <= 0 {
		lanes = DefaultReplayLanes
	}
	if pending < 1 {
		return 1
	}
	if lanes > pending {
		return pending
	}
	return lanes
}

// BatchOptions tunes a batched replay. The embedded Options apply to
// every lane; Options.Trajectory must be nil (it carries no lane
// identity — use LaneTrajectory) and Options.Graph must be nil (as in
// ReplayCompiled).
type BatchOptions struct {
	Options

	// LaneTrajectory, when non-nil, receives every lane's trajectory
	// points: it is invoked exactly as Options.Trajectory would be for
	// a standalone replay of that lane's model, with the lane index
	// prepended. Points arrive grouped by op — all K lanes of one
	// event end before the next event — so per-lane consumers must key
	// on the lane index, not on arrival order.
	LaneTrajectory func(lane int, p TrajectoryPoint)

	// LaneInterval is Options.Interval with the lane index prepended,
	// under the same delivery contract as LaneTrajectory. Options.
	// Interval must be nil when batching (it carries no lane identity).
	LaneInterval func(lane int, p IntervalPoint)
}

// ReplayBatch propagates K perturbation models over a compiled graph
// program in one tape walk, returning one Result per model. Result k
// is byte-identical to ReplayCompiled(c, models[k], opts.Options):
// same delays, same attribution, same regions, same critical path,
// same warnings. A nil model entry behaves like a nil model passed to
// ReplayCompiled (the zero model).
//
// A single-model batch delegates to the pooled single-replay path.
// Concurrent batches over one Compiled program are safe; each borrows
// its own pooled lane state (pooled per lane width — mixing widths
// under one program works but repools on every width change).
func ReplayBatch(c *Compiled, models []*Model, opts BatchOptions) ([]*Result, error) {
	if opts.Graph != nil {
		return nil, errors.New("core: ReplayBatch cannot feed a graph sink; use Analyze for graph export")
	}
	if opts.Trajectory != nil {
		return nil, errors.New("core: ReplayBatch needs lane identity on trajectory points; set BatchOptions.LaneTrajectory, not Options.Trajectory")
	}
	if opts.Interval != nil {
		return nil, errors.New("core: ReplayBatch needs lane identity on interval points; set BatchOptions.LaneInterval, not Options.Interval")
	}
	if len(models) == 0 {
		return nil, errors.New("core: ReplayBatch requires at least one model")
	}
	if len(models) == 1 {
		single := opts.Options
		if lt := opts.LaneTrajectory; lt != nil {
			single.Trajectory = func(p TrajectoryPoint) { lt(0, p) }
		}
		if li := opts.LaneInterval; li != nil {
			single.Interval = func(p IntervalPoint) { li(0, p) }
		}
		res, err := ReplayCompiled(c, models[0], single)
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: the registry observes the replay but never feeds results back
	defer opts.Metrics.Timer("core_replay_batch").Start()()
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: spans observe the replay but never feed back into its results
	defer opts.Metrics.SpanStart("replay_batch")()
	K := len(models)
	for i, m := range models {
		if m == nil {
			cp := make([]*Model, K)
			copy(cp, models)
			for j := i; j < K; j++ {
				if cp[j] == nil {
					cp[j] = &Model{}
				}
			}
			models = cp
			break
		}
	}

	st := c.batchPoolGet()
	if st == nil || st.K != K {
		//mpg:lint-ignore hotpathprop cold pool-miss path: the lane-strided state is built once per K and recycled via the pool
		st = newBatchState(c, K)
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_batch_pool_misses_total").Inc()
	} else {
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_batch_pool_hits_total").Inc()
	}
	defer c.batchPoolPut(st)
	st.reset(models)
	recordCrit := opts.RecordCritPath
	if recordCrit {
		//mpg:lint-ignore hotpathprop lazy one-time critical-path buffers, allocated on first use and recycled with the pooled state
		st.ensureCrit(c)
	}

	res := make([]*Result, K)
	for k := range res {
		res[k] = &Result{
			NRanks:          c.nranks,
			Ranks:           make([]RankResult, c.nranks),
			Regions:         make(map[RegionKey]*RegionStats, len(c.regionKeys)),
			WindowHighWater: c.highWater,
		}
	}

	st.walk(c, recordCrit, opts.LaneTrajectory, opts.LaneInterval)

	// Finalize each lane exactly as ReplayCompiled finalizes its one
	// result; nothing here may reference pooled memory. The walk's SoA
	// accumulators are copied out by value, then the finalize-only
	// fields filled in.
	for k := 0; k < K; k++ {
		r := res[k]
		for rank := 0; rank < c.nranks; rank++ {
			acc := st.rankAcc[rank*K+k]
			acc.Events = st.rankEvents[rank]
			acc.OrigEnd = c.origEnd[rank]
			acc.FinalDelay = st.prevD[rank*K+k]
			acc.Attr = st.prevAttr[rank*K+k]
			r.Ranks[rank] = acc
		}
		r.Events = st.events
		r.OrderViolations = st.ordViol[k]
		r.DelayStats = st.delayAcc[k]
		if len(c.warnings) > 0 {
			r.Warnings = make([]string, len(c.warnings), len(c.warnings)+1)
			copy(r.Warnings, c.warnings)
		}
		//mpg:lint-ignore hotpathprop once-per-replay warning assembly after the event loop
		orderViolationWarning(r)
		r.finalize()
		if len(c.regionKeys) > 0 {
			stats := make([]RegionStats, len(c.regionKeys))
			for ri := range stats {
				stats[ri] = st.regions[ri*K+k]
			}
			for ri, key := range c.regionKeys {
				r.Regions[key] = &stats[ri]
			}
		}
		if recordCrit {
			//mpg:lint-ignore hotpathprop once-per-replay path reconstruction after the event loop
			r.CritPath = buildCritPath(r, critLog{flat: st.crit[k*c.nranks : (k+1)*c.nranks]})
		}
	}

	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: recorded after the event loop, never feeds back into replay results
	if m := opts.Metrics; m != nil {
		m.Counter("core_replay_batches_total").Inc()
		m.Gauge("core_replay_batch_lanes").SetMax(float64(K))
		var events, nNoise, nMsg int64
		for k := range res {
			events += res[k].Events
		}
		for k := range st.smps {
			nNoise += st.smps[k].nNoise
			nMsg += st.smps[k].nMsg
		}
		m.Counter("core_replays_total").Add(int64(K))
		m.Counter("core_events_total").Add(events)
		m.Counter("core_edges_local_total").Add(c.nLocalEdges * int64(K))
		m.Counter("core_edges_message_total").Add(c.nMsgEdges * int64(K))
		m.Counter("core_edges_collective_total").Add(c.nCollEdges * int64(K))
		m.Counter("core_matches_total").Add(c.nMatches * int64(K))
		m.Counter("core_collectives_total").Add(c.nColls * int64(K))
		m.Counter("core_samples_noise_total").Add(nNoise)
		m.Counter("core_samples_message_total").Add(nMsg)
		m.Gauge("core_window_high_water").SetMax(float64(c.highWater))
	}
	return res, nil
}

// batchState is the reusable K-lane working memory, pooled on the
// Compiled program. Layout is structure-of-arrays with the lane index
// innermost: the single replayer's slot i becomes the contiguous span
// [i*K, i*K+K), so one op's K-lane fan-out walks a cache line, not K
// distant arrays. Everything here is reset or fully overwritten each
// batch; nothing escapes into the returned Results.
type batchState struct {
	K int

	// One full sampler hierarchy per lane. rng packs the generators
	// stream-major: stream i (fork order: messages, then ranks
	// ascending — the same forkLabels order replayState uses) of lane k
	// lives at rng[i*K+k], so one stream's K lane generators form a
	// contiguous span that the column-wise dist.BatchSampler draws can
	// walk directly. Each lane's sampler pointers address its own
	// strided column.
	smps       []sampler
	rng        []dist.RNG
	forkLabels []string

	// Lane-vectorized draw plan, rebuilt per reset (planDraws): when
	// every lane's model resolves the *same* distribution value at a
	// draw site and that value is batchable, the site draws all K lanes
	// with one SampleInto loop over the stream's contiguous generators
	// instead of K interface-dispatched scalar draws. The *B fields
	// hold the shared batch sampler (nil: fall back to scalar), the
	// *Zero fields record that every lane resolves nil (pure zero
	// fill, no RNG consumed — exactly like the scalar nil guard).
	latB, pbB       dist.BatchSampler
	latZero, pbZero bool
	noiseB          []dist.BatchSampler // per rank
	noiseZero       []bool              // per rank
	noiseQZero      bool                // no lane uses quantized compute noise
	laneBuf         []float64           // 4*K draw-column scratch for one op

	// Lane-strided per-subevent delay state: subevent gi of lane k
	// lives at gi*K+k (gi = evBase[rank]+event, as in replayState).
	startD    []float64
	startAttr []Attribution
	prevD     []float64     // rank*K+k
	prevAttr  []Attribution // rank*K+k

	msgs []xfer // transfer mi of lane k at mi*K+k

	// Collective kernel buffers. collIn is per-op scratch shared
	// across lanes (lanes resolve sequentially within an op); the out
	// arrays are lane-strided by global participant index, written
	// in-place by the stride-K kernels.
	collIn      []collIn
	collOutD    []float64
	collOutAttr []Attribution
	collOutPred []int32
	csc         collScratch

	regions []RegionStats // region ri of lane k at ri*K+k

	// Walk accumulators for per-Result totals, kept SoA so the fan
	// loops touch contiguous scratch instead of chasing K heap Results:
	// rank totals at rankAcc[rank*K+k] (only the walk-accumulated
	// fields; the finalizer fills the rest), lane k's delay statistics
	// at delayAcc[k], order violations at ordViol[k]. Event counts are
	// lane-invariant — every lane visits every op — so the walk counts
	// them once (events, rankEvents) and the finalizer fans them out.
	rankAcc    []RankResult
	delayAcc   []dist.Welford
	ordViol    []int64
	rankEvents []int64
	events     int64

	// Per-lane model flags hoisted at reset so the fan loops read a
	// contiguous byte/word per lane instead of chasing K Model pointers
	// on every event.
	laneProp []PropagationMode
	laneNeg  []bool

	// Critical-path recording (lazy; only when RecordCritPath). crit
	// and critBack are lane-major — lane k's rank r at crit[k*nranks+r]
	// — so buildCritPath consumes one lane's window unchanged.
	critStart []critStep // rank*K+k
	crit      [][]critNode
	critBack  []critNode
}

// batchPoolGet and batchPoolPut confine the analysis loader's stubbed
// sync.Pool to one seam, mirroring poolGet/poolPut for the scalar
// replay state.
func (c *Compiled) batchPoolGet() *batchState {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Get itself does not allocate (misses take the caller's cold path)
	st, _ := c.batchPool.Get().(*batchState)
	return st
}

func (c *Compiled) batchPoolPut(st *batchState) {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Put does not allocate
	c.batchPool.Put(st)
}

func newBatchState(c *Compiled, K int) *batchState {
	n := c.nranks
	total := int(c.evBase[n])
	st := &batchState{
		K:           K,
		smps:        make([]sampler, K),
		rng:         make([]dist.RNG, K*(n+1)),
		forkLabels:  replayForkLabels(n),
		startD:      make([]float64, K*total),
		startAttr:   make([]Attribution, K*total),
		prevD:       make([]float64, K*n),
		prevAttr:    make([]Attribution, K*n),
		msgs:        make([]xfer, K*len(c.msgs)),
		collIn:      make([]collIn, c.maxParts),
		collOutD:    make([]float64, K*len(c.parts)),
		collOutAttr: make([]Attribution, K*len(c.parts)),
		collOutPred: make([]int32, K*len(c.parts)),
		regions:     make([]RegionStats, K*len(c.regionKeys)),
		rankAcc:     make([]RankResult, K*n),
		delayAcc:    make([]dist.Welford, K),
		ordViol:     make([]int64, K),
		rankEvents:  make([]int64, n),
		laneProp:    make([]PropagationMode, K),
		laneNeg:     make([]bool, K),
		critStart:   make([]critStep, K*n),
		noiseB:      make([]dist.BatchSampler, n),
		noiseZero:   make([]bool, n),
		laneBuf:     make([]float64, 4*K),
	}
	for k := 0; k < K; k++ {
		st.smps[k].msgRNG = &st.rng[k]
		st.smps[k].rankRNG = make([]*dist.RNG, n)
		for r := 0; r < n; r++ {
			st.smps[k].rankRNG[r] = &st.rng[(1+r)*K+k]
		}
	}
	return st
}

// reset re-seeds every lane's sampler hierarchy exactly as a
// standalone replay of that lane's model would (ForkHierarchyInto
// over the shared label order) and clears the per-batch accumulators.
// Per-subevent and per-transfer slots need no clearing: the tape
// writes every slot before reading it, lane by lane.
//
//mpg:hotpath
func (st *batchState) reset(models []*Model) {
	for k := range st.smps {
		smp := &st.smps[k]
		smp.model = models[k]
		smp.nNoise, smp.nMsg = 0, 0
		st.laneProp[k] = models[k].Propagation
		st.laneNeg[k] = models[k].AllowNegative
		// Stream-major seeding: lane k's generator for fork label i
		// lands at rng[i*K+k] — bit-identical per lane to what a dense
		// ForkHierarchyInto over a lane-major layout would seed, just
		// relocated so each stream's K lane columns stay contiguous.
		dist.ForkHierarchyIntoStride(models[k].Seed, st.forkLabels, st.rng[k:], st.K)
	}
	for i := range st.prevD {
		st.prevD[i] = 0
		st.prevAttr[i] = Attribution{}
	}
	for i := range st.regions {
		st.regions[i] = RegionStats{}
	}
	for i := range st.rankAcc {
		st.rankAcc[i] = RankResult{}
	}
	for k := range st.delayAcc {
		st.delayAcc[k] = dist.Welford{}
		st.ordViol[k] = 0
	}
	for i := range st.rankEvents {
		st.rankEvents[i] = 0
	}
	st.events = 0
	st.planDraws(models)
}

// planDraws rebuilds the lane-vectorized draw plan for this batch's
// models. A draw site batches only when every lane resolves the same
// distribution value, so one SampleInto serves all K lanes; a site
// where every lane resolves nil becomes a zero fill; anything else
// (heterogeneous models) keeps the per-lane scalar draws. All three
// paths produce bit-identical values and RNG consumption per lane —
// the plan only chooses how the draws are scheduled.
func (st *batchState) planDraws(models []*Model) {
	st.latB, st.latZero = planLaneSite(models, siteMsgLatency)
	st.pbB, st.pbZero = planLaneSite(models, sitePerByte)
	st.noiseQZero = true
	for _, m := range models {
		if m.NoiseQuantum > 0 {
			st.noiseQZero = false
			break
		}
	}
	for r := range st.noiseB {
		st.noiseB[r] = nil
		st.noiseZero[r] = false
		d0 := st.smps[0].noiseDist(r)
		if d0 == nil {
			zero := true
			for k := 1; k < st.K; k++ {
				if st.smps[k].noiseDist(r) != nil {
					zero = false
					break
				}
			}
			st.noiseZero[r] = zero
			continue
		}
		b, ok := batchableDist(d0)
		if !ok {
			continue
		}
		same := true
		for k := 1; k < st.K; k++ {
			if st.smps[k].noiseDist(r) != d0 {
				same = false
				break
			}
		}
		if same {
			st.noiseB[r] = b
		}
	}
}

func siteMsgLatency(m *Model) dist.Distribution { return m.MsgLatency }
func sitePerByte(m *Model) dist.Distribution    { return m.PerByte }

// planLaneSite classifies one model-level draw site across the lanes:
// (sampler, false) when every lane shares the same batchable value,
// (nil, true) when every lane resolves nil, (nil, false) otherwise.
func planLaneSite(models []*Model, site func(*Model) dist.Distribution) (dist.BatchSampler, bool) {
	d0 := site(models[0]) //mpg:lint-ignore hotpathprop site accessor func value runs at plan-build time (once per reset), not in the per-event loop
	if d0 == nil {
		for _, m := range models[1:] {
			if site(m) != nil { //mpg:lint-ignore hotpathprop site accessor func value runs at plan-build time (once per reset), not in the per-event loop
				return nil, false
			}
		}
		return nil, true
	}
	b, ok := batchableDist(d0)
	if !ok {
		return nil, false
	}
	for _, m := range models[1:] {
		// Safe even when the other side carries a non-comparable
		// dynamic type (Mixture holds slices): interface comparison
		// panics only when *both* operands carry the same
		// non-comparable type, and batchableDist whitelisted d0's type
		// as comparable.
		if site(m) != d0 { //mpg:lint-ignore hotpathprop site accessor func value runs at plan-build time (once per reset), not in the per-event loop
			return nil, false
		}
	}
	return b, false
}

// batchableDist reports whether d can drive a column-wise SampleInto:
// it must implement dist.BatchSampler and be one of the comparable
// concrete families, so planDraws' cross-lane equality tests can never
// panic. The whitelist matters: a future non-comparable BatchSampler
// implementation must be skipped here, not asserted blindly.
func batchableDist(d dist.Distribution) (dist.BatchSampler, bool) {
	switch d.(type) {
	case dist.Exponential, dist.Normal, dist.Uniform, dist.Constant:
		b, ok := d.(dist.BatchSampler)
		return b, ok
	}
	return nil, false
}

// drawNoiseLanes fills dst[k] with lane k's osNoise(rank) draw: the
// batched form runs one SampleInto over the rank stream's contiguous
// lane generators and then applies each lane's own counter and clamp,
// reproducing the scalar draw bit for bit.
//
//mpg:hotpath
func (st *batchState) drawNoiseLanes(rank int, dst []float64) {
	if st.noiseZero[rank] {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	if b := st.noiseB[rank]; b != nil {
		b.SampleInto(dst, 1, st.rng[(1+rank)*st.K:(2+rank)*st.K]) //mpg:lint-ignore hotpathprop BatchSampler dispatch amortizes one dynamic call across K lanes; implementations are the dist SampleInto kernels, themselves //mpg:hotpath-guarded
		for k := range dst {
			smp := &st.smps[k]
			smp.nNoise++
			if dst[k] < 0 && !smp.model.AllowNegative {
				dst[k] = 0
			}
		}
		return
	}
	for k := range dst {
		dst[k] = st.smps[k].osNoise(rank)
	}
}

// drawComputeNoiseLanes is drawNoiseLanes for a compute gap of w
// cycles: zero-length gaps draw nothing, quantized models (any lane
// with NoiseQuantum > 0) fall back to the scalar variable-draw path.
//
//mpg:hotpath
func (st *batchState) drawComputeNoiseLanes(rank int, w int64, dst []float64) {
	if w <= 0 {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	if st.noiseQZero {
		st.drawNoiseLanes(rank, dst)
		return
	}
	for k := range dst {
		dst[k] = st.smps[k].computeNoise(rank, w)
	}
}

// drawLatencyLanes fills dst[k] with lane k's latency() draw.
//
//mpg:hotpath
func (st *batchState) drawLatencyLanes(dst []float64) {
	if st.latZero {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	if st.latB != nil {
		st.latB.SampleInto(dst, 1, st.rng[:st.K]) //mpg:lint-ignore hotpathprop BatchSampler dispatch amortizes one dynamic call across K lanes; implementations are the dist SampleInto kernels, themselves //mpg:hotpath-guarded
		for k := range dst {
			smp := &st.smps[k]
			smp.nMsg++
			if dst[k] < 0 && !smp.model.AllowNegative {
				dst[k] = 0
			}
		}
		return
	}
	for k := range dst {
		dst[k] = st.smps[k].latency()
	}
}

// drawPerByteLanes fills dst[k] with lane k's perByte(bytes) draw.
//
//mpg:hotpath
func (st *batchState) drawPerByteLanes(bytes int64, dst []float64) {
	if st.pbZero || bytes <= 0 {
		for k := range dst {
			dst[k] = 0
		}
		return
	}
	if st.pbB != nil {
		st.pbB.SampleInto(dst, 1, st.rng[:st.K]) //mpg:lint-ignore hotpathprop BatchSampler dispatch amortizes one dynamic call across K lanes; implementations are the dist SampleInto kernels, themselves //mpg:hotpath-guarded
		fb := float64(bytes)
		for k := range dst {
			smp := &st.smps[k]
			smp.nMsg++
			v := dst[k] * fb
			if v < 0 && !smp.model.AllowNegative {
				v = 0
			}
			dst[k] = v
		}
		return
	}
	for k := range dst {
		dst[k] = st.smps[k].perByte(bytes)
	}
}

// matchLanes is the batched form of the opMatch step: lane k's posted
// subevents are loaded, the four transfer deltas are drawn in exactly
// the single-replay order per lane (λ1, per-byte, λ2, receiver-side
// noise — see ReplayCompiled's opMatch case) via the column-wise draw
// helpers, and each lane's completion is resolved. Drawing a column
// across lanes before the next column preserves every lane's draw
// sequence exactly, because each lane owns independent generators —
// only the intra-lane order is observable.
//
//mpg:hotpath
func (st *batchState) matchLanes(ms []xfer, sendD []float64, sendAttr []Attribution, recvD []float64, recvAttr []Attribution, bytes int64, recvRank int) {
	K := st.K
	lat1 := st.laneBuf[:K]
	pb := st.laneBuf[K : 2*K]
	lat2 := st.laneBuf[2*K : 3*K]
	os2 := st.laneBuf[3*K : 4*K]
	st.drawLatencyLanes(lat1)
	st.drawPerByteLanes(bytes, pb)
	st.drawLatencyLanes(lat2)
	st.drawNoiseLanes(recvRank, os2)
	for k := range ms {
		m := &ms[k]
		m.sendStartD = sendD[k]
		m.sendAttr = sendAttr[k]
		m.recvPostD = recvD[k]
		m.recvAttr = recvAttr[k]
		m.dLat1 = lat1[k]
		m.dPerByte = pb[k]
		m.dLat2 = lat2[k]
		m.dOS2 = os2[k]
		m.resolveCompletion()
	}
}

// ensureCrit prepares the per-lane per-rank argmax recording slices
// over a single pooled backing array (lane-major, each rank window
// three-index sliced so appends can never cross into a neighbor).
func (st *batchState) ensureCrit(c *Compiled) {
	total := int(c.evBase[c.nranks])
	if st.critBack == nil {
		st.critBack = make([]critNode, st.K*total)
		st.crit = make([][]critNode, st.K*c.nranks)
	}
	for k := 0; k < st.K; k++ {
		lb := k * total
		for r := 0; r < c.nranks; r++ {
			lo, hi := lb+int(c.evBase[r]), lb+int(c.evBase[r+1])
			st.crit[k*c.nranks+r] = st.critBack[lo:lo:hi]
		}
	}
}

// walk is the batched tape loop: each op is decoded once and its
// update fanned across the K lanes. Per lane it mirrors
// ReplayCompiled's op dispatch statement for statement — same kernel
// calls, same comparison order, same clamp rules — which is what makes
// every lane byte-identical to a standalone replay.
//
//mpg:hotpath
func (st *batchState) walk(c *Compiled, recordCrit bool, lt func(int, TrajectoryPoint), li func(int, IntervalPoint)) {
	K := st.K
	k64 := int64(K)
	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin:
			rank := int(o.rank)
			base := (c.evBase[rank] + o.event) * k64
			pb := rank * K
			noise := st.laneBuf[:K]
			st.drawComputeNoiseLanes(rank, o.aux, noise)
			for k := 0; k < K; k++ {
				delta := noise[k]
				sD := st.prevD[pb+k] + delta
				sA := st.prevAttr[pb+k].addOwn(delta)
				st.rankAcc[pb+k].InjectedLocal += delta
				if st.laneNeg[k] && o.started {
					// Order preservation (§4.3), as in beginRecord.
					if floor := st.prevD[pb+k] - float64(o.aux); sD < floor {
						sD = floor
						st.ordViol[k]++
					}
				}
				st.startD[base+int64(k)] = sD
				st.startAttr[base+int64(k)] = sA
				if recordCrit {
					cs := critStep{d: sD, kind: EdgeLocal}
					if o.started {
						cs.pred = NodeRef{Rank: rank, Event: o.event - 1, End: true}
						cs.predD = st.prevD[pb+k]
						cs.hasPred = true
					}
					st.critStart[pb+k] = cs
				}
			}

		case opMatch:
			cm := &c.msgs[o.arg]
			sgi := (c.evBase[cm.sendRank] + cm.sendEvent) * k64
			rgi := (c.evBase[cm.recvRank] + cm.recvEvent) * k64
			mi := int64(o.arg) * k64
			st.matchLanes(st.msgs[mi:mi+k64],
				st.startD[sgi:sgi+k64], st.startAttr[sgi:sgi+k64],
				st.startD[rgi:rgi+k64], st.startAttr[rgi:rgi+k64],
				cm.bytes, int(cm.recvRank))

		case opCollResolve:
			st.resolveCollLanes(c, o.arg)

		default: // end ops
			rank := int(o.rank)
			base := (c.evBase[rank] + o.event) * k64
			pb := rank * K
			rb := int(o.region) * K
			// Hoist the per-lane noise draw out of the fan loop for the
			// end ops that sample: one column-wise draw, then the loop
			// consumes lane k's value in place of its scalar call.
			var noise []float64
			if o.code == opEndLocal || o.code == opEndSend {
				noise = st.laneBuf[:K]
				st.drawNoiseLanes(rank, noise)
			}
			for k := 0; k < K; k++ {
				prop := st.laneProp[k]
				sD := st.startD[base+int64(k)]
				sA := st.startAttr[base+int64(k)]
				rr := &st.rankAcc[pb+k]
				reg := &st.regions[rb+k]
				var endD float64
				var endAttr Attribution
				var critEnd critStep
				var ivWait float64
				var ivState WaitState
				if recordCrit {
					// Default argmax: the event's own start subevent.
					critEnd = critStep{pred: NodeRef{Rank: rank, Event: o.event}, predD: sD, kind: EdgeLocal, hasPred: true}
				}
				switch o.code {
				case opEndMarker, opEndImmediate:
					endD, endAttr = sD, sA

				case opEndLocal:
					delta := noise[k]
					rr.InjectedLocal += delta
					endD, endAttr = combineLocalKernel(prop, sD, sA, delta, o.aux)

				case opEndSend:
					m := &st.msgs[int64(o.arg)*k64+int64(k)]
					dOS1 := noise[k]
					rr.InjectedLocal += dOS1
					local, remote, localAttr, remoteAttr := sendCompletionKernel(
						prop, sD, sA, dOS1, o.aux, m)
					mergeStats(rr, reg, local, remote)
					if remote > local {
						endD, endAttr = remote, remoteAttr
						ivWait, ivState = remote-local, WaitLateReceiver
						if recordCrit {
							critEnd = st.msgCritLane(c, o.arg, k)
						}
					} else {
						endD, endAttr = local, localAttr
					}

				case opEndRecv:
					m := &st.msgs[int64(o.arg)*k64+int64(k)]
					rr.InjectedLocal += m.dOS2
					local, remote, localAttr, remoteAttr := recvCompletionKernel(
						prop, sD, sA, o.aux, m)
					mergeStats(rr, reg, local, remote)
					if remote > local {
						endD, endAttr = remote, remoteAttr
						ivWait, ivState = remote-local, WaitLateSender
						if recordCrit {
							if prop == PropagationAnchored {
								// Anchored receive: the remote path is always the
								// data arrival, never the receiver's own post.
								cm := &c.msgs[o.arg]
								critEnd = critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
							} else {
								critEnd = st.msgCritLane(c, o.arg, k)
							}
						}
					} else {
						endD, endAttr = local, localAttr
					}

				case opEndColl:
					pt := &c.parts[o.arg]
					pi := int(o.arg)*K + k
					local := sD
					remote := st.collOutD[pi]
					if prop == PropagationAnchored {
						remote -= float64(pt.dur)
					}
					mergeStats(rr, reg, local, remote)
					if remote > local {
						endD, endAttr = remote, st.collOutAttr[pi]
						ivWait, ivState = remote-local, WaitCollective
						if recordCrit {
							cc := &c.colls[pt.coll]
							wp := &c.parts[cc.partOff+st.collOutPred[pi]]
							wgi := (c.evBase[wp.rank]+wp.event)*k64 + int64(k)
							critEnd = critStep{pred: NodeRef{Rank: int(wp.rank), Event: wp.event}, predD: st.startD[wgi], kind: EdgeCollective, hasPred: true}
						}
					} else {
						endD, endAttr = local, sA
					}
				}

				// Commit, mirroring finishRecord.
				if st.laneNeg[k] {
					if floor := sD - float64(o.aux); endD < floor {
						endD = floor
						st.ordViol[k]++
					}
				}
				if recordCrit {
					critEnd.d = endD
					//mpg:lint-ignore hotpathalloc appends into pooled critBack backing whose cap is the lane's full per-rank event count; never grows
					st.crit[k*c.nranks+rank] = append(st.crit[k*c.nranks+rank], critNode{start: st.critStart[pb+k], end: critEnd})
				}
				st.prevD[pb+k] = endD
				st.prevAttr[pb+k] = endAttr
				// The K delayAcc Welford chains are independent, so the
				// serial divide in Add pipelines across lanes here instead
				// of stalling one chain per event as the scalar replay must.
				st.delayAcc[k].Add(endD)
				//mpg:lint-ignore hotpathprop caller-supplied observation hook, invoked only when the caller opted in
				if lt != nil {
					lt(k, TrajectoryPoint{
						Rank:    rank,
						Event:   o.event,
						Kind:    o.kind,
						OrigEnd: o.origEnd,
						Delay:   endD,
						Region:  c.regionKeys[o.region].Region,
					})
				}
				//mpg:lint-ignore hotpathprop caller-supplied observation hook, invoked only when the caller opted in
				if li != nil {
					p := IntervalPoint{
						Rank:       rank,
						Event:      o.event,
						Kind:       o.kind,
						OrigBegin:  o.origEnd - o.aux,
						OrigEnd:    o.origEnd,
						StartDelay: sD,
						EndDelay:   endD,
						Wait:       ivWait,
						State:      ivState,
						PeerRank:   -1,
					}
					if o.code == opEndRecv {
						cm := &c.msgs[o.arg]
						p.PeerRank = int(cm.sendRank)
						p.PeerEvent = cm.sendEvent
					}
					li(k, p)
				}
				if !reg.firstSeen {
					reg.firstSeen = true
					reg.firstDelay = endD
				}
				reg.Events++
				reg.DelayGrowth = endD - reg.firstDelay
			}
			st.rankEvents[rank]++
			st.events++
		}
	}
}

// msgCritLane is msgCrit for one batch lane: the winning message-edge
// predecessor of lane k's view of a transfer completion.
//
//mpg:hotpath
func (st *batchState) msgCritLane(c *Compiled, idx int32, k int) critStep {
	m := &st.msgs[int(idx)*st.K+k]
	cm := &c.msgs[idx]
	if m.cRecvFromData {
		return critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
	}
	return critStep{pred: NodeRef{Rank: int(cm.recvRank), Event: cm.recvEvent}, predD: m.recvPostD, kind: EdgeMessage, hasPred: true}
}

// resolveCollLanes runs the collective resolution kernel once per
// lane, mirroring resolveColl's mode dispatch with the lane's own
// model and sampler. The in buffer is rebuilt per lane from the
// lane-strided start arrays; outputs land lane-strided via the
// kernels' stride parameter.
//
//mpg:hotpath
func (st *batchState) resolveCollLanes(c *Compiled, idx int32) {
	K := st.K
	k64 := int64(K)
	cc := &c.colls[idx]
	p := int(cc.partN)
	in := st.collIn[:p]
	for k := 0; k < K; k++ {
		for j := 0; j < p; j++ {
			pt := &c.parts[int(cc.partOff)+j]
			gi := (c.evBase[pt.rank]+pt.event)*k64 + int64(k)
			in[j] = collIn{rank: int(pt.rank), startD: st.startD[gi], startAttr: st.startAttr[gi]}
		}
		off := int(cc.partOff)*K + k
		outD := st.collOutD[off:]
		outAttr := st.collOutAttr[off:]
		outPred := st.collOutPred[off:]
		smp := &st.smps[k]
		if cc.kind == trace.KindScan {
			// Scan always uses the explicit prefix chain (see
			// resolveCollective).
			resolveExplicitKernel(smp, cc.kind, cc.bytes, cc.root, in, &st.csc, outD, outAttr, outPred, K)
			continue
		}
		switch smp.model.Collectives {
		case CollectiveApprox:
			resolveApproxKernel(smp, cc.kind, cc.bytes, in, outD, outAttr, outPred, K)
		case CollectiveExplicit:
			resolveExplicitKernel(smp, cc.kind, cc.bytes, cc.root, in, &st.csc, outD, outAttr, outPred, K)
		default:
			// Unknown mode: the streaming engine resolves nothing; clear
			// this lane's reused slots so stale values can't leak.
			for j := 0; j < p; j++ {
				outD[j*K], outAttr[j*K], outPred[j*K] = 0, Attribution{}, 0
			}
		}
	}
}
