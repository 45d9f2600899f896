package core

import "mpgraph/internal/dist"

// ReplayCompiled propagates a perturbation model over a compiled graph
// program. It is byte-identical to Analyze over the same trace with
// the same model and the same Options.Burst used at Compile time —
// same delays, same attribution, same critical path, same warnings —
// but performs zero parsing and zero matching, and (after the first
// replay warms the program's buffer pool) allocates only the returned
// Result. Concurrent replays of one Compiled program are safe; each
// borrows its own pooled state.
//
// opts.MaxWindow and opts.Burst have no effect at replay (the schedule
// was fixed at compile time).
//
//mpg:hotpath
func ReplayCompiled(c *Compiled, model *Model, opts Options) (*Result, error) {
	//mpg:lint-ignore hotpathprop out-of-band metrics boundary: the timer and span observe the replay but never feed results back, and the nil-registry path is allocation-free
	defer opts.Metrics.Time("core_replay_compiled").End()
	if model == nil {
		//mpg:lint-ignore hotpathprop nil-model fallback; Monte Carlo callers always pass a model
		model = &Model{}
	}
	st, _ := c.pool.Get().(*replayState)
	if st == nil {
		//mpg:lint-ignore hotpathprop cold pool-miss path: the replay state is built once and recycled via the pool
		st = newReplayState(c)
		//mpg:lint-ignore hotpathprop out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_pool_misses_total").Inc()
	} else {
		//mpg:lint-ignore hotpathprop out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_pool_hits_total").Inc()
	}
	defer c.pool.Put(st)
	st.reset(model)
	recordCrit := opts.RecordCritPath
	if recordCrit {
		//mpg:lint-ignore hotpathprop lazy one-time critical-path buffers, allocated on first use and recycled with the pooled state
		st.ensureCrit(c)
	}

	//mpg:lint-ignore hotpathprop the returned Result is the replay's one documented allocation group (AllocsPerRun-guarded <= 16)
	res := &Result{
		NRanks:          c.nranks,
		Ranks:           make([]RankResult, c.nranks),
		Regions:         make(map[RegionKey]*RegionStats, len(c.regionKeys)),
		WindowHighWater: c.highWater,
	}

	smp := &st.smp
	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin:
			rank := int(o.rank)
			gi := c.evBase[rank] + o.event
			st.startD[gi], st.startAttr[gi] = beginKernel(smp, res, rank, o.aux, st.prevD[rank], st.prevAttr[rank])

		case opMatch:
			m := &st.msgs[o.arg]
			cm := &c.msgs[o.arg]
			sgi := c.evBase[cm.sendRank] + cm.sendEvent
			rgi := c.evBase[cm.recvRank] + cm.recvEvent
			m.sendStartD, m.sendAttr = st.startD[sgi], st.startAttr[sgi]
			m.recvPostD, m.recvAttr = st.startD[rgi], st.startAttr[rgi]
			smp.sampleMatch(m, cm.bytes, int(cm.recvRank))

		case opCollResolve:
			st.resolveColl(c, o.arg)

		default: // end ops
			rank := int(o.rank)
			gi := c.evBase[rank] + o.event
			sD := st.startD[gi]
			sA := st.startAttr[gi]
			rr := &res.Ranks[rank]
			reg := &st.regions[o.region]
			var endD float64
			var endAttr Attribution
			var ivWait float64
			var ivState WaitState
			switch o.code {
			case opEndMarker, opEndImmediate:
				endD, endAttr = sD, sA
			case opEndLocal:
				endD, endAttr = localEndKernel(smp, rr, rank, sD, sA, o.aux)
			case opEndSend:
				endD, endAttr, ivWait, ivState = sendCompletionKernel(smp, rr, reg, rank, sD, sA, o.aux, &st.msgs[o.arg])
			case opEndRecv:
				endD, endAttr, ivWait, ivState = recvCompletionKernel(model.Propagation, rr, reg, sD, sA, o.aux, &st.msgs[o.arg])
			case opEndColl:
				endD, endAttr, ivWait, ivState = collEndKernel(model.Propagation, rr, reg, sD, sA, o.aux, st.collOutD[o.arg], st.collOutAttr[o.arg])
			}
			endD = commitKernel(res, rr, reg, model.AllowNegative, sD, endD, o.aux)
			if recordCrit {
				win, winD, pred := st.endWinner(c, o, ivState, model.Propagation)
				st.critBack[gi] = critNode{endD: endD, winStartD: winD, winEvent: win.Event,
					winRank: int32(win.Rank), pred: pred, state: ivState}
			}
			st.prevD[rank] = endD
			st.prevAttr[rank] = endAttr
			//mpg:lint-ignore hotpathprop caller-supplied observation hook, invoked only when the caller opted in
			if opts.Interval != nil {
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
					Region:     c.regionKeys[o.region].Region,
				}
				if o.code == opEndRecv {
					cm := &c.msgs[o.arg]
					p.PeerRank = int(cm.sendRank)
					p.PeerEvent = cm.sendEvent
				}
				opts.Interval(p)
			}
		}
	}

	for r := 0; r < c.nranks; r++ {
		rr := &res.Ranks[r]
		rr.OrigEnd = c.origEnd[r]
		rr.FinalDelay = st.prevD[r]
		rr.Attr = st.prevAttr[r]
	}
	if len(c.warnings) > 0 {
		//mpg:lint-ignore hotpathprop warnings escape into the returned Result by design; part of the guarded budget
		res.Warnings = make([]string, len(c.warnings), len(c.warnings)+1)
		copy(res.Warnings, c.warnings)
	}
	//mpg:lint-ignore hotpathprop once-per-replay warning assembly after the event loop
	orderViolationWarning(res)
	res.finalize()
	//mpg:lint-ignore hotpathprop once-per-replay check after the event loop; only a replay whose delays overflowed float64 formats an error
	if err := res.checkFinite(); err != nil {
		return nil, err
	}
	// The Result must not reference pooled memory: region stats are
	// copied out into a fresh backing array.
	if len(c.regionKeys) > 0 {
		//mpg:lint-ignore hotpathprop region stats escape into the returned Result by design; part of the guarded budget
		stats := make([]RegionStats, len(c.regionKeys))
		copy(stats, st.regions)
		for i, k := range c.regionKeys {
			res.Regions[k] = &stats[i]
		}
	}
	if recordCrit {
		//mpg:lint-ignore hotpathprop once-per-replay path reconstruction after the event loop
		res.CritPath = buildCritPath(res, st.critBack, st.critTop)
	}
	//mpg:lint-ignore hotpathprop out-of-band metrics boundary: recorded after the event loop, never feeds back into replay results
	flushMetrics(opts.Metrics, "core_replays_total", res, &c.cnt, smp)
	return res, nil
}

// replayState is the reusable per-replay working memory, pooled on the
// Compiled program. Everything here is either reset or fully
// overwritten each replay; nothing escapes into the returned Result.
type replayState struct {
	smp sampler
	// rngBacking holds the sampler's generator hierarchy in fork order:
	// the message stream first, then one generator per rank ascending —
	// the order newSampler forks them, so ForkHierarchyInto over
	// forkLabels reproduces its streams exactly.
	rngBacking []dist.RNG
	forkLabels []string // forkLabels(nranks)

	// Flat per-subevent delay state, indexed by evBase[rank]+event.
	startD    []float64
	startAttr []Attribution
	prevD     []float64
	prevAttr  []Attribution

	msgs []xfer // value half of each transfer, indexed like Compiled.msgs

	// Collective kernel buffers. The out arrays are indexed by global
	// participant index (like Compiled.parts) so resolved contributions
	// survive until each participant's end op consumes them.
	collIn      []collIn
	collOutD    []float64
	collOutAttr []Attribution
	collOutPred []int32
	csc         collScratch

	regions []RegionStats // dense, indexed like Compiled.regionKeys

	// Critical-path recording (lazy; only when RecordCritPath): one node
	// per event, indexed like startD, and each rank's last node.
	critBack []critNode
	critTop  []int32
}

func newReplayState(c *Compiled) *replayState {
	n := c.nranks
	total := c.evBase[n]
	st := &replayState{
		rngBacking:  make([]dist.RNG, n+1),
		forkLabels:  forkLabels(n),
		startD:      make([]float64, total),
		startAttr:   make([]Attribution, total),
		prevD:       make([]float64, n),
		prevAttr:    make([]Attribution, n),
		msgs:        make([]xfer, len(c.msgs)),
		collIn:      make([]collIn, c.maxParts),
		collOutD:    make([]float64, len(c.parts)),
		collOutAttr: make([]Attribution, len(c.parts)),
		collOutPred: make([]int32, len(c.parts)),
		regions:     make([]RegionStats, len(c.regionKeys)),
	}
	st.smp.useRNGs(st.rngBacking)
	return st
}

// reset re-seeds the sampler hierarchy exactly as newSampler would
// (message stream forked first, then ranks ascending) and clears the
// per-replay accumulators. Per-subevent and per-transfer slots need no
// clearing: the tape writes every slot before reading it.
//
//mpg:hotpath
func (st *replayState) reset(m *Model) {
	st.smp.bind(m)
	dist.ForkHierarchyInto(m.Seed, st.forkLabels, st.rngBacking)
	for r := range st.prevD {
		st.prevD[r] = 0
		st.prevAttr[r] = Attribution{}
	}
	for i := range st.regions {
		st.regions[i] = RegionStats{}
	}
}

// ensureCrit allocates the pooled critical-path log on first use; its
// length is known from the program, and every replay overwrites it.
func (st *replayState) ensureCrit(c *Compiled) {
	if st.critBack == nil {
		st.critBack = make([]critNode, c.evBase[c.nranks])
		st.critTop = make([]int32, c.nranks)
		for r := range st.critTop {
			st.critTop[r] = int32(c.evBase[r+1] - 1)
		}
	}
}

// endWinner is analyzer.endWinner for the compiled engine: the start
// subevent whose path won end op o's merge, as its wait state tells,
// with D there and the node of the end just before it (−1 at event 0).
//
//mpg:hotpath
func (st *replayState) endWinner(c *Compiled, o *op, state WaitState, p PropagationMode) (NodeRef, float64, int32) {
	rank, event := o.rank, o.event
	switch state {
	case WaitLateSender, WaitLateReceiver:
		cm := &c.msgs[o.arg]
		if sendPostWon(&st.msgs[o.arg], state, p) {
			rank, event = cm.sendRank, cm.sendEvent
		} else {
			rank, event = cm.recvRank, cm.recvEvent
		}
	case WaitCollective:
		wp := &c.parts[c.colls[c.parts[o.arg].coll].partOff+st.collOutPred[o.arg]]
		rank, event = wp.rank, wp.event
	}
	gi := c.evBase[rank] + event
	pred := int32(gi - 1)
	if event == 0 {
		pred = -1
	}
	return NodeRef{Rank: int(rank), Event: event}, st.startD[gi], pred
}

// resolveColl loads one compiled collective's inbound view and runs
// the collective resolution kernel over it.
//
//mpg:hotpath
func (st *replayState) resolveColl(c *Compiled, idx int32) {
	cc := &c.colls[idx]
	lo, hi := int(cc.partOff), int(cc.partOff+cc.partN)
	in := st.collIn[:hi-lo]
	for j := range in {
		pt := &c.parts[lo+j]
		gi := c.evBase[pt.rank] + pt.event
		in[j] = collIn{rank: int(pt.rank), startD: st.startD[gi], startAttr: st.startAttr[gi]}
	}
	resolveCollKernel(&st.smp, cc.kind, cc.bytes, cc.root, in, &st.csc,
		st.collOutD[lo:hi], st.collOutAttr[lo:hi], st.collOutPred[lo:hi])
}
