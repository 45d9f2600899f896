package core

import (
	"errors"
	"runtime"
	"sort"

	"mpgraph/internal/dist"
	"mpgraph/internal/parallel"
	"mpgraph/internal/trace"
)

// Wavefront-slab parallel replay: one replay across many cores,
// byte-identical to ReplayCompiled.
//
// The tape's FP semantics are order-sensitive in exactly two ways:
// each rank's operation sequence (delays, attribution, region stats,
// critical-path argmaxes accumulate in per-rank op order) and the
// global tape order (the Welford delay-stats chain and the
// Trajectory/Interval emission). Everything else is a pure function
// of already-published values. ReplayParallel therefore splits a
// replay into three phases:
//
//  1. Draw prefetch. Sampling is value-independent (§4.1) and every
//     sampler call touches exactly one RNG stream (the shared message
//     stream or one rank's stream), so each stream's value sequence
//     is the stream's site list — the tape-order projection of draw
//     calls onto that stream — walked with a freshly forked
//     generator. Streams prefetch independently, in parallel, into a
//     flat value array; the fork offsets reproduce ForkHierarchyInto
//     exactly, so every value is bit-identical to the serial draw.
//  2. Wavefront slab execution. Each rank's begin/end ops (plus the
//     collective resolutions it owns) form an ordered node stream,
//     partitioned into slabs delimited by the cross-rank edges:
//     a slab boundary falls before every node that consumes another
//     rank's value (message-peer completion, collective resolve/end)
//     and after every node another rank consumes (a posted begin, an
//     owned resolve). Workers advance rank streams slab-by-slab over
//     a parallel.Frontier; a slab runs only when the slabs producing
//     its inputs have published, so every max() merge reads exactly
//     the values the serial replay would have read. Per-rank FP
//     accumulation order is preserved because a rank's slabs execute
//     in stream order on one worker at a time.
//  3. Serial finalization. The main goroutine replays the tape-order
//     commit effects that are global: the Welford chain over the
//     stored end delays, Trajectory/Interval emission, counter sums,
//     warnings, regions, and the critical-path walk.
//
// Point-to-point matches need no scheduled node at all: the xfer is a
// pure function of both posts' published delays plus four prefetched
// draws, so each completion op reconstructs it on the stack —
// duplicating ~20 flops instead of sharing a mutable slot.

// Draw-site kinds. A site is one sampler method call (which may
// consume zero RNG words — nil distribution, zero-length gap,
// Constant per-byte — but always produces exactly one value).
const (
	drawComputeNoise uint8 = iota // computeNoise(rank, arg=gap)
	drawOSNoise                   // osNoise(rank)
	drawLatency                   // latency()
	drawPerByte                   // perByte(arg=bytes)
)

// drawSite is one sampler call in one stream's consumption order:
// the method, its argument, and the flat value-array slot the result
// lands in.
type drawSite struct {
	kind uint8
	arg  int64
	dst  int32
}

// drawRecorder collects draw sites. The collective kernels are run
// through a recording sampler at plan time (on zero delay inputs;
// kernel control flow is value-independent), so their exact call
// sequence is learned, never hand-mirrored. Stream 0 is the message
// stream, stream r+1 is rank r's stream.
type drawRecorder struct {
	streams [][]drawSite
	cur     int32
}

func (r *drawRecorder) noise(rank int) {
	r.streams[rank+1] = append(r.streams[rank+1], drawSite{kind: drawOSNoise, dst: r.cur})
	r.cur++
}

func (r *drawRecorder) msg(kind uint8, bytes int64) {
	r.streams[0] = append(r.streams[0], drawSite{kind: kind, arg: bytes, dst: r.cur})
	r.cur++
}

// drawPlanKey is the model shape a draw plan depends on: collective
// mode and the CollectiveBytes switch are the only model fields that
// change which sampler calls a replay makes (nil distributions and
// quantization change how many RNG words a call consumes, but the
// live prefetch sampler handles that inside the call).
type drawPlanKey struct {
	mode  CollectiveMode
	bytes bool
}

// drawPlan is the per-model-shape draw schedule: one site list per
// RNG stream (in that stream's tape-order consumption order) and the
// flat value-array layout. Value layout: [0,T) begin compute-noise,
// [T,2T) end OS-noise, [2T,2T+4M) per-message lat1/perByte/lat2/os2
// interleaved, [2T+4M, valsLen) collective kernel values in call
// order, collOff[i] the base of collective i's span.
type drawPlan struct {
	streams [][]drawSite
	collOff []int32 // len nColls+1; collOff[nColls] == valsLen
	endOff  int     // == T
	msgOff  int     // == 2T
	valsLen int
}

// parDep is one cross-stream dependency: the owning rank's stream
// must have published position >= pos (i.e. the node at pos-1, always
// the last node of its slab, has executed).
type parDep struct {
	rank int32
	pos  int64
}

// parSlab is one contiguous run [lo,hi) of a rank's node stream whose
// only cross-stream inputs arrive at its first node.
type parSlab struct {
	lo, hi int32
	depOff int32
	depN   int32
	level  int32 // wavefront index: longest dependency chain to this slab
}

// parPlan is the structural (model-independent) half of the wavefront
// schedule, built once per Compiled.
type parPlan struct {
	// nodes holds op-tape indices, rank-major: rank r's stream is
	// nodes[nodeBase[r]:nodeBase[r+1]], in tape order. opMatch ops are
	// excluded (match values are reconstructed consumer-side); each
	// opCollResolve is assigned to its lowest-rank participant.
	nodes    []int32
	nodeBase []int32
	slabs    []parSlab
	slabBase []int32 // rank r's slabs are slabs[slabBase[r]:slabBase[r+1]]
	deps     []parDep
	targets  []int64 // per rank: stream length (Frontier targets)

	nWavefronts int
}

// parPlanOf returns the structural wavefront plan, building it on
// first use.
func (c *Compiled) parPlanOf() *parPlan {
	c.parPlanOnce.Do(func() { c.parPlanVal = buildParPlan(c) })
	return c.parPlanVal
}

// drawPlanOf returns the draw plan for the model's collective shape,
// building and caching it on first use.
func (c *Compiled) drawPlanOf(m *Model) *drawPlan {
	key := drawPlanKey{mode: m.Collectives, bytes: m.CollectiveBytes}
	if key.mode != CollectiveApprox && key.mode != CollectiveExplicit {
		// Every unknown mode resolves nothing (Scan excepted, which is
		// mode-independent); collapse them to one cache entry.
		key.mode = CollectiveMode(0xff)
	}
	c.drawPlanMu.Lock()
	defer c.drawPlanMu.Unlock()
	if c.drawPlans == nil {
		c.drawPlans = make(map[drawPlanKey]*drawPlan, 4)
	}
	if p, ok := c.drawPlans[key]; ok {
		return p
	}
	p := buildDrawPlan(c, key)
	c.drawPlans[key] = p
	return p
}

// buildDrawPlan walks the tape once, projecting every draw call onto
// its RNG stream in tape order. Collective kernels are executed with
// a recording sampler so the plan carries their true call sequence.
func buildDrawPlan(c *Compiled, key drawPlanKey) *drawPlan {
	T := int(c.evBase[c.nranks])
	M := len(c.msgs)
	p := &drawPlan{
		collOff: make([]int32, len(c.colls)+1),
		endOff:  T,
		msgOff:  2 * T,
	}
	rec := &drawRecorder{
		streams: make([][]drawSite, c.nranks+1),
		cur:     int32(2*T + 4*M),
	}
	shape := &Model{Collectives: key.mode, CollectiveBytes: key.bytes}
	var smp sampler
	smp.model = shape
	smp.rec = rec
	in := make([]collIn, c.maxParts)
	outD := make([]float64, c.maxParts)
	outAttr := make([]Attribution, c.maxParts)
	outPred := make([]int32, c.maxParts)
	var csc collScratch
	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin:
			rank := int(o.rank)
			gi := c.evBase[rank] + o.event
			rec.streams[rank+1] = append(rec.streams[rank+1],
				drawSite{kind: drawComputeNoise, arg: o.aux, dst: int32(gi)})
		case opMatch:
			cm := &c.msgs[o.arg]
			base := int32(2*T + 4*int(o.arg))
			rec.streams[0] = append(rec.streams[0],
				drawSite{kind: drawLatency, dst: base},
				drawSite{kind: drawPerByte, arg: cm.bytes, dst: base + 1},
				drawSite{kind: drawLatency, dst: base + 2})
			rec.streams[int(cm.recvRank)+1] = append(rec.streams[int(cm.recvRank)+1],
				drawSite{kind: drawOSNoise, dst: base + 3})
		case opEndLocal, opEndSend:
			rank := int(o.rank)
			gi := c.evBase[rank] + o.event
			rec.streams[rank+1] = append(rec.streams[rank+1],
				drawSite{kind: drawOSNoise, dst: int32(T + int(gi))})
		case opCollResolve:
			cc := &c.colls[o.arg]
			p.collOff[o.arg] = rec.cur
			np := int(cc.partN)
			for j := 0; j < np; j++ {
				in[j] = collIn{rank: int(c.parts[int(cc.partOff)+j].rank)}
			}
			switch {
			case cc.kind == trace.KindScan:
				resolveExplicitKernel(&smp, cc.kind, cc.bytes, cc.root, in[:np], &csc, outD, outAttr, outPred, 1)
			case key.mode == CollectiveApprox:
				resolveApproxKernel(&smp, cc.kind, cc.bytes, in[:np], outD, outAttr, outPred, 1)
			case key.mode == CollectiveExplicit:
				resolveExplicitKernel(&smp, cc.kind, cc.bytes, cc.root, in[:np], &csc, outD, outAttr, outPred, 1)
			}
		}
	}
	p.collOff[len(c.colls)] = rec.cur
	p.streams = rec.streams
	p.valsLen = int(rec.cur)
	return p
}

// buildParPlan partitions the tape into per-rank, cross-edge-
// delimited slabs and the dependency schedule between them.
func buildParPlan(c *Compiled) *parPlan {
	n := c.nranks
	total := 0
	streamLen := make([]int32, n)
	route := func(o *op) int {
		if o.code == opCollResolve {
			// A resolve is owned by its lowest-rank participant (parts
			// are in ascending world-rank order).
			return int(c.parts[c.colls[o.arg].partOff].rank)
		}
		return int(o.rank)
	}
	for i := range c.ops {
		o := &c.ops[i]
		if o.code == opMatch {
			continue
		}
		streamLen[route(o)]++
		total++
	}
	plan := &parPlan{
		nodes:    make([]int32, total),
		nodeBase: make([]int32, n+1),
		slabBase: make([]int32, n+1),
		targets:  make([]int64, n),
	}
	for r := 0; r < n; r++ {
		plan.nodeBase[r+1] = plan.nodeBase[r] + streamLen[r]
		plan.targets[r] = int64(streamLen[r])
	}

	// Route ops to streams in tape order, recording positions and
	// collecting per-node dependencies; mark publish targets (nodes
	// other streams depend on — slabs are cut after them so a dep is
	// always satisfied by the target's own slab completing).
	cursor := make([]int32, n)
	beginPos := make([]int32, c.evBase[n]) // gi -> stream position of the begin node
	resolvePos := make([]int32, len(c.colls))
	resolveOwner := make([]int32, len(c.colls))
	nodeDeps := make([][]parDep, total)
	isTarget := make([]bool, total)
	addDep := func(flat int, rank int, depRank int32, depPos int32) {
		if int(depRank) == rank {
			return // in-stream order already guarantees it
		}
		nodeDeps[flat] = append(nodeDeps[flat], parDep{rank: depRank, pos: int64(depPos) + 1})
		isTarget[plan.nodeBase[depRank]+depPos] = true
	}
	for i := range c.ops {
		o := &c.ops[i]
		if o.code == opMatch {
			continue
		}
		r := route(o)
		pos := cursor[r]
		cursor[r]++
		flat := int(plan.nodeBase[r] + pos)
		plan.nodes[flat] = int32(i)
		switch o.code {
		case opBegin:
			beginPos[c.evBase[r]+o.event] = pos
		case opCollResolve:
			resolvePos[o.arg] = pos
			resolveOwner[o.arg] = int32(r)
			cc := &c.colls[o.arg]
			for j := int32(0); j < cc.partN; j++ {
				pt := &c.parts[cc.partOff+j]
				addDep(flat, r, pt.rank, beginPos[c.evBase[pt.rank]+pt.event])
			}
		case opEndSend:
			cm := &c.msgs[o.arg]
			addDep(flat, r, cm.recvRank, beginPos[c.evBase[cm.recvRank]+cm.recvEvent])
		case opEndRecv:
			cm := &c.msgs[o.arg]
			addDep(flat, r, cm.sendRank, beginPos[c.evBase[cm.sendRank]+cm.sendEvent])
		case opEndColl:
			pt := &c.parts[o.arg]
			addDep(flat, r, resolveOwner[pt.coll], resolvePos[pt.coll])
		}
	}

	// Segment each stream into slabs: cut before every dep-carrying
	// node, after every publish target.
	slabOfNode := make([]int32, total)
	for r := 0; r < n; r++ {
		base := int(plan.nodeBase[r])
		L := int(streamLen[r])
		plan.slabBase[r] = int32(len(plan.slabs))
		lo := 0
		for p := 0; p <= L; p++ {
			cut := p == L ||
				(p > 0 && (len(nodeDeps[base+p]) > 0 || isTarget[base+p-1]))
			if !cut {
				continue
			}
			if p == lo {
				continue
			}
			depOff := int32(len(plan.deps))
			plan.deps = append(plan.deps, nodeDeps[base+lo]...)
			si := int32(len(plan.slabs))
			plan.slabs = append(plan.slabs, parSlab{
				lo:     int32(lo),
				hi:     int32(p),
				depOff: depOff,
				depN:   int32(len(nodeDeps[base+lo])),
			})
			for q := lo; q < p; q++ {
				slabOfNode[base+q] = si
			}
			lo = p
		}
	}
	plan.slabBase[n] = int32(len(plan.slabs))

	// Wavefront levels, assigned in tape order of each slab's first
	// node: every dependency targets the last node of a slab whose
	// first node has a strictly smaller tape index, so processing in
	// that order sees all predecessors leveled — which is also the
	// acyclicity proof the property tests pin.
	order := make([]int32, len(plan.slabs))
	for i := range order {
		order[i] = int32(i)
	}
	firstOp := func(si int32) int32 {
		// Recover the slab's rank via slabBase to index its nodes.
		r := sort.Search(n, func(r int) bool { return plan.slabBase[r+1] > si })
		return plan.nodes[plan.nodeBase[r]+plan.slabs[si].lo]
	}
	sort.Slice(order, func(a, b int) bool { return firstOp(order[a]) < firstOp(order[b]) })
	maxLevel := int32(0)
	for _, si := range order {
		sl := &plan.slabs[si]
		lv := int32(0)
		for _, d := range plan.deps[sl.depOff : sl.depOff+sl.depN] {
			target := slabOfNode[plan.nodeBase[d.rank]+int32(d.pos)-1]
			if tl := plan.slabs[target].level + 1; tl > lv {
				lv = tl
			}
		}
		sl.level = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	if len(plan.slabs) > 0 {
		plan.nWavefronts = int(maxLevel) + 1
	}
	return plan
}

// parWorker is one executor worker's private scratch: a live sampler
// for the prefetch phase and a popping sampler plus kernel buffers
// for the collective resolutions it executes.
type parWorker struct {
	pre    sampler // prefetch: live draws against the shared RNG backing
	smp    sampler // execution: pops prefetched collective values
	collIn []collIn
	csc    collScratch
}

// parCursor is one rank stream's executor position.
type parCursor struct {
	slab int32 // next slab index (relative to slabBase[rank])
	pos  int64 // published node position
}

// parState is the pooled working memory of one parallel replay.
type parState struct {
	frontier parallel.Frontier

	// RNG hierarchy backing, seeded identically to replayState.reset:
	// slot 0 the message stream, slot r+1 rank r.
	rngBacking []dist.RNG
	forkLabels []string
	rankPtrs   []*dist.RNG

	vals []float64 // prefetched draw values (drawPlan layout)

	startD    []float64
	startAttr []Attribution
	prevD     []float64
	prevAttr  []Attribution
	endD      []float64
	waitVal   []float64
	waitKind  []uint8

	collOutD    []float64
	collOutAttr []Attribution
	collOutPred []int32

	regions  []RegionStats
	ordViol  []int64 // per-rank §4.3 clamp counts, summed at finalize
	cursors  []parCursor
	workers  []parWorker
	nWorkers int

	critStart []critStep
	crit      [][]critNode
	critBack  []critNode

	// Per-replay bindings (cleared after the run).
	c          *Compiled
	model      *Model
	plan       *parPlan
	draws      *drawPlan
	res        *Result
	recordCrit bool
}

// parPoolGet and parPoolPut confine the analysis loader's stubbed
// sync.Pool to one seam, mirroring poolGet/poolPut for the scalar
// replay state.
func (c *Compiled) parPoolGet() *parState {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Get itself does not allocate (misses take the caller's cold path)
	st, _ := c.parPool.Get().(*parState)
	return st
}

func (c *Compiled) parPoolPut(st *parState) {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Put does not allocate
	c.parPool.Put(st)
}

func newParState(c *Compiled) *parState {
	n := c.nranks
	total := c.evBase[n]
	st := &parState{
		rngBacking:  make([]dist.RNG, n+1),
		forkLabels:  replayForkLabels(n),
		rankPtrs:    make([]*dist.RNG, n),
		startD:      make([]float64, total),
		startAttr:   make([]Attribution, total),
		prevD:       make([]float64, n),
		prevAttr:    make([]Attribution, n),
		endD:        make([]float64, total),
		waitVal:     make([]float64, total),
		waitKind:    make([]uint8, total),
		collOutD:    make([]float64, len(c.parts)),
		collOutAttr: make([]Attribution, len(c.parts)),
		collOutPred: make([]int32, len(c.parts)),
		regions:     make([]RegionStats, len(c.regionKeys)),
		ordViol:     make([]int64, n),
		cursors:     make([]parCursor, n),
		critStart:   make([]critStep, n),
	}
	for r := 0; r < n; r++ {
		st.rankPtrs[r] = &st.rngBacking[r+1]
	}
	return st
}

// reset binds the state to one replay, seeding the RNG hierarchy
// exactly as replayState.reset does and clearing the per-replay
// accumulators. Draw values, subevent slots, and collective outputs
// need no clearing: every slot a replay reads, it writes first.
func (st *parState) reset(c *Compiled, m *Model, plan *parPlan, draws *drawPlan, res *Result, recordCrit bool, workers int) {
	st.c, st.model, st.plan, st.draws, st.res, st.recordCrit = c, m, plan, draws, res, recordCrit
	dist.ForkHierarchyInto(m.Seed, st.forkLabels, st.rngBacking)
	if cap(st.vals) < draws.valsLen {
		st.vals = make([]float64, draws.valsLen)
	}
	st.vals = st.vals[:draws.valsLen]
	for r := range st.prevD {
		st.prevD[r] = 0
		st.prevAttr[r] = Attribution{}
		st.ordViol[r] = 0
		st.cursors[r] = parCursor{}
	}
	for i := range st.regions {
		st.regions[i] = RegionStats{}
	}
	st.frontier.Reset(c.nranks)
	if cap(st.workers) < workers {
		st.workers = append(st.workers[:cap(st.workers)], make([]parWorker, workers-cap(st.workers))...)
	}
	st.workers = st.workers[:workers]
	st.nWorkers = workers
	for i := range st.workers {
		w := &st.workers[i]
		w.pre.model = m
		//mpg:lint-ignore rngpurity workers share the backing hierarchy but never a stream: prefetch statically assigns each RNG stream to exactly one worker, pinned byte-identical under -race
		w.pre.rankRNG = st.rankPtrs
		w.pre.msgRNG = &st.rngBacking[0]
		w.pre.nNoise, w.pre.nMsg = 0, 0
		w.pre.pre, w.pre.preCur, w.pre.rec = nil, 0, nil
		w.smp.model = m
		if cap(w.collIn) < c.maxParts {
			w.collIn = make([]collIn, c.maxParts)
		}
	}
}

// ensureCrit mirrors replayState.ensureCrit.
func (st *parState) ensureCrit(c *Compiled) {
	if st.critBack == nil {
		st.critBack = make([]critNode, c.evBase[c.nranks])
		st.crit = make([][]critNode, c.nranks)
	}
	for r := 0; r < c.nranks; r++ {
		st.crit[r] = st.critBack[c.evBase[r]:c.evBase[r]:c.evBase[r+1]]
	}
}

// prefetch walks one RNG stream's site list with a live sampler,
// storing each value at its planned slot. Stream 0 is the message
// stream; stream s>0 is rank s-1, and only touches that rank's
// generator, so distinct streams prefetch concurrently without
// sharing any mutable state but the worker's own sampler counters.
//
//mpg:hotpath
func (st *parState) prefetch(w *parWorker, stream int) {
	sites := st.draws.streams[stream]
	smp := &w.pre
	rank := stream - 1
	for i := range sites {
		s := &sites[i]
		var v float64
		switch s.kind {
		case drawComputeNoise:
			v = smp.computeNoise(rank, s.arg)
		case drawOSNoise:
			v = smp.osNoise(rank)
		case drawLatency:
			v = smp.latency()
		case drawPerByte:
			v = smp.perByte(s.arg)
		}
		st.vals[s.dst] = v
	}
}

// depsMet reports whether every cross-stream input of the slab has
// been published.
//
//mpg:hotpath
func (st *parState) depsMet(sl *parSlab) bool {
	deps := st.plan.deps[sl.depOff : sl.depOff+sl.depN]
	for i := range deps {
		if st.frontier.At(int(deps[i].rank)) < deps[i].pos {
			return false
		}
	}
	return true
}

// advance runs every currently-ready slab of one rank stream in
// order, publishing after each so dependent streams wake promptly,
// and returns the stream's new position.
//
//mpg:hotpath
func (st *parState) advance(w *parWorker, rank int) int64 {
	plan := st.plan
	cur := &st.cursors[rank]
	slabs := plan.slabs[plan.slabBase[rank]:plan.slabBase[rank+1]]
	for int(cur.slab) < len(slabs) {
		sl := &slabs[cur.slab]
		if !st.depsMet(sl) {
			break
		}
		st.execSlab(w, rank, sl)
		cur.slab++
		cur.pos = int64(sl.hi)
		st.frontier.Publish(rank, cur.pos)
	}
	return cur.pos
}

// execSlab executes one slab's nodes in stream order. The body is the
// op dispatch of ReplayCompiled with draws read from the prefetched
// value array instead of live RNG streams, global commit effects
// (Welford, Trajectory/Interval) deferred to the finalize pass, and
// point-to-point transfers reconstructed on the stack.
//
//mpg:hotpath
func (st *parState) execSlab(w *parWorker, rank int, sl *parSlab) {
	c := st.c
	model := st.model
	recordCrit := st.recordCrit
	rr := &st.res.Ranks[rank]
	base := st.plan.nodeBase[rank]
	for p := sl.lo; p < sl.hi; p++ {
		o := &c.ops[st.plan.nodes[base+p]]
		switch o.code {
		case opBegin:
			gi := c.evBase[rank] + o.event
			delta := st.vals[gi]
			sD := st.prevD[rank] + delta
			sA := st.prevAttr[rank].addOwn(delta)
			rr.InjectedLocal += delta
			if model.AllowNegative && o.started {
				if floor := st.prevD[rank] - float64(o.aux); sD < floor {
					sD = floor
					st.ordViol[rank]++
				}
			}
			st.startD[gi] = sD
			st.startAttr[gi] = sA
			if recordCrit {
				cs := critStep{d: sD, kind: EdgeLocal}
				if o.started {
					cs.pred = NodeRef{Rank: rank, Event: o.event - 1, End: true}
					cs.predD = st.prevD[rank]
					cs.hasPred = true
				}
				st.critStart[rank] = cs
			}

		case opCollResolve:
			st.resolveCollPar(w, o.arg)

		default: // end ops
			gi := c.evBase[rank] + o.event
			sD := st.startD[gi]
			sA := st.startAttr[gi]
			reg := &st.regions[o.region]
			var endD float64
			var endAttr Attribution
			var critEnd critStep
			var ivWait float64
			var ivState WaitState
			if recordCrit {
				critEnd = critStep{pred: NodeRef{Rank: rank, Event: o.event}, predD: sD, kind: EdgeLocal, hasPred: true}
			}
			switch o.code {
			case opEndMarker, opEndImmediate:
				endD, endAttr = sD, sA

			case opEndLocal:
				delta := st.vals[st.draws.endOff+int(gi)]
				rr.InjectedLocal += delta
				endD, endAttr = combineLocalKernel(model.Propagation, sD, sA, delta, o.aux)

			case opEndSend:
				var m xfer
				st.loadXfer(&m, o.arg)
				dOS1 := st.vals[st.draws.endOff+int(gi)]
				rr.InjectedLocal += dOS1
				local, remote, localAttr, remoteAttr := sendCompletionKernel(
					model.Propagation, sD, sA, dOS1, o.aux, &m)
				mergeStats(rr, reg, local, remote)
				if remote > local {
					endD, endAttr = remote, remoteAttr
					ivWait, ivState = remote-local, WaitLateReceiver
					if recordCrit {
						critEnd = parMsgCrit(c, &m, o.arg)
					}
				} else {
					endD, endAttr = local, localAttr
				}

			case opEndRecv:
				var m xfer
				st.loadXfer(&m, o.arg)
				rr.InjectedLocal += m.dOS2
				local, remote, localAttr, remoteAttr := recvCompletionKernel(
					model.Propagation, sD, sA, o.aux, &m)
				mergeStats(rr, reg, local, remote)
				if remote > local {
					endD, endAttr = remote, remoteAttr
					ivWait, ivState = remote-local, WaitLateSender
					if recordCrit {
						if model.Propagation == PropagationAnchored {
							cm := &c.msgs[o.arg]
							critEnd = critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
						} else {
							critEnd = parMsgCrit(c, &m, o.arg)
						}
					}
				} else {
					endD, endAttr = local, localAttr
				}

			case opEndColl:
				pi := o.arg
				pt := &c.parts[pi]
				local := sD
				remote := st.collOutD[pi]
				if model.Propagation == PropagationAnchored {
					remote -= float64(pt.dur)
				}
				mergeStats(rr, reg, local, remote)
				if remote > local {
					endD, endAttr = remote, st.collOutAttr[pi]
					ivWait, ivState = remote-local, WaitCollective
					if recordCrit {
						cc := &c.colls[pt.coll]
						wp := &c.parts[cc.partOff+st.collOutPred[pi]]
						wgi := c.evBase[wp.rank] + wp.event
						critEnd = critStep{pred: NodeRef{Rank: int(wp.rank), Event: wp.event}, predD: st.startD[wgi], kind: EdgeCollective, hasPred: true}
					}
				} else {
					endD, endAttr = local, sA
				}
			}

			if model.AllowNegative {
				if floor := sD - float64(o.aux); endD < floor {
					endD = floor
					st.ordViol[rank]++
				}
			}
			if recordCrit {
				critEnd.d = endD
				//mpg:lint-ignore hotpathalloc appends into pooled critBack backing whose cap is the rank's full event count; never grows
				st.crit[rank] = append(st.crit[rank], critNode{start: st.critStart[rank], end: critEnd})
			}
			st.prevD[rank] = endD
			st.prevAttr[rank] = endAttr
			rr.Events++
			st.endD[gi] = endD
			st.waitVal[gi] = ivWait
			st.waitKind[gi] = uint8(ivState)
			if !reg.firstSeen {
				reg.firstSeen = true
				reg.firstDelay = endD
			}
			reg.Events++
			reg.DelayGrowth = endD - reg.firstDelay
		}
	}
}

// loadXfer reconstructs a transfer's value half on the stack from the
// two published posts and the four prefetched match draws — the same
// inputs resolveCompletion saw serially, so the same FP outputs.
//
//mpg:hotpath
func (st *parState) loadXfer(m *xfer, idx int32) {
	c := st.c
	cm := &c.msgs[idx]
	sgi := c.evBase[cm.sendRank] + cm.sendEvent
	rgi := c.evBase[cm.recvRank] + cm.recvEvent
	m.sendStartD = st.startD[sgi]
	m.sendAttr = st.startAttr[sgi]
	m.recvPostD = st.startD[rgi]
	m.recvAttr = st.startAttr[rgi]
	mbase := st.draws.msgOff + 4*int(idx)
	m.dLat1 = st.vals[mbase]
	m.dPerByte = st.vals[mbase+1]
	m.dLat2 = st.vals[mbase+2]
	m.dOS2 = st.vals[mbase+3]
	m.resolveCompletion()
}

// parMsgCrit is replayState.msgCrit over a stack-reconstructed xfer.
//
//mpg:hotpath
func parMsgCrit(c *Compiled, m *xfer, idx int32) critStep {
	cm := &c.msgs[idx]
	if m.cRecvFromData {
		return critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
	}
	return critStep{pred: NodeRef{Rank: int(cm.recvRank), Event: cm.recvEvent}, predD: m.recvPostD, kind: EdgeMessage, hasPred: true}
}

// resolveCollPar runs the collective resolution kernel with the
// worker's popping sampler over the collective's prefetched value
// span, mirroring replayState.resolveColl's dispatch.
//
//mpg:hotpath
func (st *parState) resolveCollPar(w *parWorker, idx int32) {
	c := st.c
	cc := &c.colls[idx]
	p := int(cc.partN)
	in := w.collIn[:p]
	for j := 0; j < p; j++ {
		pt := &c.parts[int(cc.partOff)+j]
		gi := c.evBase[pt.rank] + pt.event
		in[j] = collIn{rank: int(pt.rank), startD: st.startD[gi], startAttr: st.startAttr[gi]}
	}
	outD := st.collOutD[cc.partOff : int(cc.partOff)+p]
	outAttr := st.collOutAttr[cc.partOff : int(cc.partOff)+p]
	outPred := st.collOutPred[cc.partOff : int(cc.partOff)+p]
	w.smp.pre = st.vals[st.draws.collOff[idx]:st.draws.collOff[idx+1]]
	w.smp.preCur = 0
	if cc.kind == trace.KindScan {
		resolveExplicitKernel(&w.smp, cc.kind, cc.bytes, cc.root, in, &w.csc, outD, outAttr, outPred, 1)
		return
	}
	switch st.model.Collectives {
	case CollectiveApprox:
		resolveApproxKernel(&w.smp, cc.kind, cc.bytes, in, outD, outAttr, outPred, 1)
	case CollectiveExplicit:
		resolveExplicitKernel(&w.smp, cc.kind, cc.bytes, cc.root, in, &w.csc, outD, outAttr, outPred, 1)
	default:
		for j := range outD {
			outD[j], outAttr[j], outPred[j] = 0, Attribution{}, 0
		}
	}
}

// ReplayParallel propagates a perturbation model over a compiled
// graph program using up to `workers` cores for a single replay, with
// a Result byte-identical to ReplayCompiled(c, model, opts): same
// delays, attribution, regions, warnings, critical path, trajectory,
// and interval streams, for every worker count. workers <= 0 means
// runtime.GOMAXPROCS(0); the effective pool never exceeds the rank
// count. Concurrent ReplayParallel calls on one Compiled are safe;
// each borrows its own pooled state.
//
// Like ReplayCompiled, a non-nil opts.Graph is an error, and
// opts.MaxWindow/opts.Burst have no effect (the schedule was fixed at
// compile time). See the package comment at the top of this file for
// the three-phase structure and the determinism argument.
func ReplayParallel(c *Compiled, model *Model, opts Options, workers int) (*Result, error) {
	if opts.Graph != nil {
		return nil, errors.New("core: ReplayParallel cannot feed a graph sink; use Analyze for graph export")
	}
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: the registry observes the replay but never feeds results back
	defer opts.Metrics.Timer("core_replay_parallel").Start()()
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: spans observe the replay but never feed back into its results
	defer opts.Metrics.SpanStart("replay_parallel")()
	if model == nil {
		model = &Model{}
	}
	plan := c.parPlanOf()
	draws := c.drawPlanOf(model)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.nranks {
		workers = c.nranks
	}
	if workers < 1 {
		workers = 1
	}

	st := c.parPoolGet()
	if st == nil {
		//mpg:lint-ignore hotpathprop cold pool-miss path: the parallel state is built once and recycled via the pool
		st = newParState(c)
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_par_pool_misses_total").Inc()
	} else {
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_par_pool_hits_total").Inc()
	}

	res := &Result{
		NRanks:          c.nranks,
		Ranks:           make([]RankResult, c.nranks),
		Regions:         make(map[RegionKey]*RegionStats, len(c.regionKeys)),
		WindowHighWater: c.highWater,
	}
	st.reset(c, model, plan, draws, res, opts.RecordCritPath, workers)
	if opts.RecordCritPath {
		st.ensureCrit(c)
	}

	// Phases 1+2: every worker prefetches its share of the RNG
	// streams, rendezvouses, then advances its rank streams through
	// the slab schedule.
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
	runSlabs := opts.Metrics.SpanStart("replay_slabs")
	err := st.frontier.Run(workers, plan.targets,
		func(me int) {
			for s := me; s < c.nranks+1; s += workers {
				st.prefetch(&st.workers[me], s)
			}
		},
		func(me, rank int) int64 {
			return st.advance(&st.workers[me], rank)
		})
	runSlabs()
	if err != nil {
		// A worker panicked mid-replay; the state may hold partially
		// executed slabs, so it is not returned to the pool.
		return nil, err
	}

	// Phase 3: serial, global-order finalization.
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
	finSpan := opts.Metrics.SpanStart("replay_finalize")
	var nNoise, nMsg int64
	for i := range st.workers {
		nNoise += st.workers[i].pre.nNoise
		nMsg += st.workers[i].pre.nMsg
	}
	for r := 0; r < c.nranks; r++ {
		res.OrderViolations += st.ordViol[r]
	}
	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin, opMatch, opCollResolve:
			continue
		}
		rank := int(o.rank)
		gi := c.evBase[rank] + o.event
		endD := st.endD[gi]
		res.Events++
		res.DelayStats.Add(endD)
		if opts.Trajectory != nil {
			opts.Trajectory(TrajectoryPoint{
				Rank:    rank,
				Event:   o.event,
				Kind:    o.kind,
				OrigEnd: o.origEnd,
				Delay:   endD,
				Region:  c.regionKeys[o.region].Region,
			})
		}
		if opts.Interval != nil {
			p := IntervalPoint{
				Rank:       rank,
				Event:      o.event,
				Kind:       o.kind,
				OrigBegin:  o.origEnd - o.aux,
				OrigEnd:    o.origEnd,
				StartDelay: st.startD[gi],
				EndDelay:   endD,
				Wait:       st.waitVal[gi],
				State:      WaitState(st.waitKind[gi]),
				PeerRank:   -1,
			}
			if o.code == opEndRecv {
				cm := &c.msgs[o.arg]
				p.PeerRank = int(cm.sendRank)
				p.PeerEvent = cm.sendEvent
			}
			opts.Interval(p)
		}
	}
	for r := 0; r < c.nranks; r++ {
		rr := &res.Ranks[r]
		rr.OrigEnd = c.origEnd[r]
		rr.FinalDelay = st.prevD[r]
		rr.Attr = st.prevAttr[r]
	}
	if len(c.warnings) > 0 {
		res.Warnings = make([]string, len(c.warnings), len(c.warnings)+1)
		copy(res.Warnings, c.warnings)
	}
	//mpg:lint-ignore hotpathprop once-per-replay warning assembly after the event loop
	orderViolationWarning(res)
	res.finalize()
	if len(c.regionKeys) > 0 {
		stats := make([]RegionStats, len(c.regionKeys))
		copy(stats, st.regions)
		for i, k := range c.regionKeys {
			res.Regions[k] = &stats[i]
		}
	}
	if opts.RecordCritPath {
		//mpg:lint-ignore hotpathprop once-per-replay path reconstruction after the event loop
		res.CritPath = buildCritPath(res, critLog{flat: st.crit})
	}
	finSpan()

	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: recorded after the event loop, never feeds back into replay results
	if m := opts.Metrics; m != nil {
		m.Counter("core_replays_total").Inc()
		m.Counter("core_replays_parallel_total").Inc()
		m.Counter("core_events_total").Add(res.Events)
		m.Counter("core_edges_local_total").Add(c.nLocalEdges)
		m.Counter("core_edges_message_total").Add(c.nMsgEdges)
		m.Counter("core_edges_collective_total").Add(c.nCollEdges)
		m.Counter("core_matches_total").Add(c.nMatches)
		m.Counter("core_collectives_total").Add(c.nColls)
		m.Counter("core_samples_noise_total").Add(nNoise)
		m.Counter("core_samples_message_total").Add(nMsg)
		m.Counter("core_replay_slabs_total").Add(int64(len(plan.slabs)))
		m.Counter("core_replay_slab_stalls_total").Add(st.frontier.Stalls())
		m.Gauge("core_replay_wavefronts").SetMax(float64(plan.nWavefronts))
		m.Gauge("core_replay_parallel_workers").SetMax(float64(workers))
		m.Gauge("core_window_high_water").SetMax(float64(c.highWater))
	}

	// Drop per-replay bindings before pooling so the pooled state
	// retains neither the Result nor the model.
	st.res, st.model, st.plan, st.draws = nil, nil, nil, nil
	c.parPoolPut(st)
	return res, nil
}
