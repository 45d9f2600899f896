package core

import (
	"errors"
	"fmt"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
)

// ReplayCompiled propagates a perturbation model over a compiled graph
// program. It is byte-identical to Analyze over the same trace with
// the same model and the same Options.Burst used at Compile time —
// same delays, same attribution, same critical path, same warnings —
// but performs zero parsing and zero matching, and (after the first
// replay warms the program's buffer pool) allocates only the returned
// Result. Concurrent replays of one Compiled program are safe; each
// borrows its own pooled state.
//
// Graph export requires the streaming engine: a non-nil opts.Graph is
// an error. opts.MaxWindow and opts.Burst have no effect at replay
// (the schedule was fixed at compile time).
//
//mpg:hotpath
func ReplayCompiled(c *Compiled, model *Model, opts Options) (*Result, error) {
	if opts.Graph != nil {
		return nil, errors.New("core: ReplayCompiled cannot feed a graph sink; use Analyze for graph export")
	}
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: the registry observes the replay but never feeds results back, and the nil-registry fast path is allocation-free
	defer opts.Metrics.Timer("core_replay_compiled").Start()()
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: spans observe the replay but never feed back into its results
	defer opts.Metrics.SpanStart("replay")()
	if model == nil {
		//mpg:lint-ignore hotpathalloc nil-model fallback; Monte Carlo callers always pass a model
		model = &Model{}
	}
	st := c.poolGet()
	if st == nil {
		//mpg:lint-ignore hotpathprop cold pool-miss path: the replay state is built once and recycled via the pool
		st = newReplayState(c)
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_pool_misses_total").Inc()
	} else {
		//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary
		opts.Metrics.Counter("core_replay_pool_hits_total").Inc()
	}
	defer c.poolPut(st)
	st.reset(model)
	recordCrit := opts.RecordCritPath
	if recordCrit {
		//mpg:lint-ignore hotpathprop lazy one-time critical-path buffers, allocated on first use and recycled with the pooled state
		st.ensureCrit(c)
	}

	//mpg:lint-ignore hotpathalloc the returned Result is the replay's one documented allocation group (AllocsPerRun-guarded <= 16)
	res := &Result{
		NRanks:          c.nranks,
		Ranks:           make([]RankResult, c.nranks),
		Regions:         make(map[RegionKey]*RegionStats, len(c.regionKeys)),
		WindowHighWater: c.highWater,
	}

	// Per-replay draw specialization: when the model's laws are the
	// common concrete families (exponential noise and latency with no
	// per-rank overrides or quantization, constant per-byte), the op
	// sites below draw inline — the ziggurat fast path is then the only
	// call per draw, instead of threading every draw through the
	// sampler wrappers' per-draw dispatch. Both paths consume identical
	// RNG bits in identical order and keep identical draw counts, so
	// specialization is invisible to the result.
	smp := &st.smp
	noiseExp, fastNoise := model.OSNoise.(dist.Exponential)
	fastNoise = fastNoise && len(model.RankOSNoise) == 0 && model.NoiseQuantum <= 0
	latExp, fastLat := model.MsgLatency.(dist.Exponential)
	pbConst, fastPB := model.PerByte.(dist.Constant)
	fastMatch := fastNoise && fastLat && fastPB
	negOK := model.AllowNegative

	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin:
			rank := int(o.rank)
			var delta float64
			if fastNoise {
				if o.aux > 0 {
					smp.nNoise++
					delta = noiseExp.Sample(smp.rankRNG[rank])
					if delta < 0 && !negOK {
						delta = 0
					}
				}
			} else {
				delta = smp.computeNoise(rank, o.aux)
			}
			sD := st.prevD[rank] + delta
			sA := st.prevAttr[rank].addOwn(delta)
			res.Ranks[rank].InjectedLocal += delta
			if model.AllowNegative && o.started {
				// Order preservation (§4.3), as in beginRecord.
				if floor := st.prevD[rank] - float64(o.aux); sD < floor {
					sD = floor
					res.OrderViolations++
				}
			}
			gi := c.evBase[rank] + o.event
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

		case opMatch:
			m := &st.msgs[o.arg]
			cm := &c.msgs[o.arg]
			sgi := c.evBase[cm.sendRank] + cm.sendEvent
			rgi := c.evBase[cm.recvRank] + cm.recvEvent
			m.sendStartD = st.startD[sgi]
			m.sendAttr = st.startAttr[sgi]
			m.recvPostD = st.startD[rgi]
			m.recvAttr = st.startAttr[rgi]
			// Same draw order as resolveMatch.
			if fastMatch {
				smp.nMsg += 2
				v1 := latExp.Sample(smp.msgRNG)
				if v1 < 0 && !negOK {
					v1 = 0
				}
				var vb float64
				if cm.bytes > 0 {
					smp.nMsg++
					vb = pbConst.C * float64(cm.bytes)
					if vb < 0 && !negOK {
						vb = 0
					}
				}
				v2 := latExp.Sample(smp.msgRNG)
				if v2 < 0 && !negOK {
					v2 = 0
				}
				smp.nNoise++
				os2 := noiseExp.Sample(smp.rankRNG[cm.recvRank])
				if os2 < 0 && !negOK {
					os2 = 0
				}
				m.dLat1, m.dPerByte, m.dLat2, m.dOS2 = v1, vb, v2, os2
			} else {
				m.dLat1 = st.smp.latency()
				m.dPerByte = st.smp.perByte(cm.bytes)
				m.dLat2 = st.smp.latency()
				m.dOS2 = st.smp.osNoise(int(cm.recvRank))
			}
			m.resolveCompletion()

		case opCollResolve:
			st.resolveColl(c, o.arg, model)

		default: // end ops
			rank := int(o.rank)
			gi := c.evBase[rank] + o.event
			sD := st.startD[gi]
			sA := st.startAttr[gi]
			rr := &res.Ranks[rank]
			reg := &st.regions[o.region]
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
				var delta float64
				if fastNoise {
					smp.nNoise++
					delta = noiseExp.Sample(smp.rankRNG[rank])
					if delta < 0 && !negOK {
						delta = 0
					}
				} else {
					delta = smp.osNoise(rank)
				}
				rr.InjectedLocal += delta
				endD, endAttr = combineLocalKernel(model.Propagation, sD, sA, delta, o.aux)

			case opEndSend:
				m := &st.msgs[o.arg]
				var dOS1 float64
				if fastNoise {
					smp.nNoise++
					dOS1 = noiseExp.Sample(smp.rankRNG[rank])
					if dOS1 < 0 && !negOK {
						dOS1 = 0
					}
				} else {
					dOS1 = smp.osNoise(rank)
				}
				rr.InjectedLocal += dOS1
				local, remote, localAttr, remoteAttr := sendCompletionKernel(
					model.Propagation, sD, sA, dOS1, o.aux, m)
				mergeStats(rr, reg, local, remote)
				if remote > local {
					endD, endAttr = remote, remoteAttr
					ivWait, ivState = remote-local, WaitLateReceiver
					if recordCrit {
						critEnd = st.msgCrit(c, o.arg)
					}
				} else {
					endD, endAttr = local, localAttr
				}

			case opEndRecv:
				m := &st.msgs[o.arg]
				rr.InjectedLocal += m.dOS2
				local, remote, localAttr, remoteAttr := recvCompletionKernel(
					model.Propagation, sD, sA, o.aux, m)
				mergeStats(rr, reg, local, remote)
				if remote > local {
					endD, endAttr = remote, remoteAttr
					ivWait, ivState = remote-local, WaitLateSender
					if recordCrit {
						if model.Propagation == PropagationAnchored {
							// Anchored receive: the remote path is always the
							// data arrival, never the receiver's own post.
							cm := &c.msgs[o.arg]
							critEnd = critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
						} else {
							critEnd = st.msgCrit(c, o.arg)
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

			// Commit, mirroring finishRecord.
			if model.AllowNegative {
				if floor := sD - float64(o.aux); endD < floor {
					endD = floor
					res.OrderViolations++
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
			res.Events++
			res.DelayStats.Add(endD)
			//mpg:lint-ignore hotpathprop caller-supplied observation hook, invoked only when the caller opted in
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
				}
				if o.code == opEndRecv {
					cm := &c.msgs[o.arg]
					p.PeerRank = int(cm.sendRank)
					p.PeerEvent = cm.sendEvent
				}
				opts.Interval(p)
			}
			if !reg.firstSeen {
				reg.firstSeen = true
				reg.firstDelay = endD
			}
			reg.Events++
			reg.DelayGrowth = endD - reg.firstDelay
		}
	}

	for r := 0; r < c.nranks; r++ {
		rr := &res.Ranks[r]
		rr.OrigEnd = c.origEnd[r]
		rr.FinalDelay = st.prevD[r]
		rr.Attr = st.prevAttr[r]
	}
	if len(c.warnings) > 0 {
		//mpg:lint-ignore hotpathalloc warnings escape into the returned Result by design; part of the guarded budget
		res.Warnings = make([]string, len(c.warnings), len(c.warnings)+1)
		copy(res.Warnings, c.warnings)
	}
	//mpg:lint-ignore hotpathprop once-per-replay warning assembly after the event loop
	orderViolationWarning(res)
	res.finalize()
	// The Result must not reference pooled memory: region stats are
	// copied out into a fresh backing array.
	if len(c.regionKeys) > 0 {
		//mpg:lint-ignore hotpathalloc region stats escape into the returned Result by design; part of the guarded budget
		stats := make([]RegionStats, len(c.regionKeys))
		copy(stats, st.regions)
		for i, k := range c.regionKeys {
			res.Regions[k] = &stats[i]
		}
	}
	if recordCrit {
		//mpg:lint-ignore hotpathprop once-per-replay path reconstruction after the event loop
		res.CritPath = buildCritPath(res, critLog{flat: st.crit})
	}
	//mpg:lint-ignore hotpathprop,detreach out-of-band metrics boundary: recorded after the event loop, never feeds back into replay results
	if m := opts.Metrics; m != nil {
		m.Counter("core_replays_total").Inc()
		m.Counter("core_events_total").Add(res.Events)
		m.Counter("core_edges_local_total").Add(c.nLocalEdges)
		m.Counter("core_edges_message_total").Add(c.nMsgEdges)
		m.Counter("core_edges_collective_total").Add(c.nCollEdges)
		m.Counter("core_matches_total").Add(c.nMatches)
		m.Counter("core_collectives_total").Add(c.nColls)
		m.Counter("core_samples_noise_total").Add(st.smp.nNoise)
		m.Counter("core_samples_message_total").Add(st.smp.nMsg)
		m.Gauge("core_window_high_water").SetMax(float64(c.highWater))
	}
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
	forkLabels []string // "messages", then precomputed "rank-%d" labels

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

	// Critical-path recording (lazy; only when RecordCritPath).
	critStart []critStep
	crit      [][]critNode
	critBack  []critNode
}

// poolGet and poolPut confine the analysis loader's stubbed sync.Pool
// type to one seam: Get's result is re-typed here, so the replay body
// downstream keeps statically resolvable method calls in the lint
// call graph instead of degrading to unprovable dynamic ones.
//
//mpg:hotpath
func (c *Compiled) poolGet() *replayState {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Get itself does not allocate (misses take the caller's cold path)
	st, _ := c.pool.Get().(*replayState)
	return st
}

//mpg:hotpath
func (c *Compiled) poolPut(st *replayState) {
	//mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Put does not allocate
	c.pool.Put(st)
}

func newReplayState(c *Compiled) *replayState {
	n := c.nranks
	total := c.evBase[n]
	st := &replayState{
		rngBacking:  make([]dist.RNG, n+1),
		forkLabels:  replayForkLabels(n),
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
		critStart:   make([]critStep, n),
	}
	st.smp.msgRNG = &st.rngBacking[0]
	st.smp.rankRNG = make([]*dist.RNG, n)
	for r := 0; r < n; r++ {
		st.smp.rankRNG[r] = &st.rngBacking[r+1]
	}
	return st
}

// replayForkLabels precomputes the sampler hierarchy's fork labels in
// fork order: the shared message stream, then the per-rank streams
// ascending. The replay state seeds its generators by running
// dist.ForkHierarchyInto over this slice, which is what pins their
// streams to newSampler's.
func replayForkLabels(n int) []string {
	labels := make([]string, n+1)
	labels[0] = "messages"
	for r := 0; r < n; r++ {
		labels[r+1] = fmt.Sprintf("rank-%d", r)
	}
	return labels
}

// reset re-seeds the sampler hierarchy exactly as newSampler would
// (message stream forked first, then ranks ascending) and clears the
// per-replay accumulators. Per-subevent and per-transfer slots need no
// clearing: the tape writes every slot before reading it.
//
//mpg:hotpath
func (st *replayState) reset(m *Model) {
	st.smp.model = m
	st.smp.nNoise, st.smp.nMsg = 0, 0
	dist.ForkHierarchyInto(m.Seed, st.forkLabels, st.rngBacking)
	for r := range st.prevD {
		st.prevD[r] = 0
		st.prevAttr[r] = Attribution{}
	}
	for i := range st.regions {
		st.regions[i] = RegionStats{}
	}
}

// ensureCrit prepares the per-rank argmax recording slices over a
// single pooled backing array (full length is known from the program).
func (st *replayState) ensureCrit(c *Compiled) {
	if st.critBack == nil {
		st.critBack = make([]critNode, c.evBase[c.nranks])
		st.crit = make([][]critNode, c.nranks)
	}
	for r := 0; r < c.nranks; r++ {
		st.crit[r] = st.critBack[c.evBase[r]:c.evBase[r]:c.evBase[r+1]]
	}
}

// msgCrit is critRemoteMsg for the compiled engine: the winning
// message-edge predecessor of a transfer completion.
//
//mpg:hotpath
func (st *replayState) msgCrit(c *Compiled, idx int32) critStep {
	m := &st.msgs[idx]
	cm := &c.msgs[idx]
	if m.cRecvFromData {
		return critStep{pred: NodeRef{Rank: int(cm.sendRank), Event: cm.sendEvent}, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
	}
	return critStep{pred: NodeRef{Rank: int(cm.recvRank), Event: cm.recvEvent}, predD: m.recvPostD, kind: EdgeMessage, hasPred: true}
}

// resolveColl runs the collective resolution kernel for one compiled
// collective, mirroring resolveCollective's mode dispatch.
//
//mpg:hotpath
func (st *replayState) resolveColl(c *Compiled, idx int32, model *Model) {
	cc := &c.colls[idx]
	p := int(cc.partN)
	in := st.collIn[:p]
	for j := 0; j < p; j++ {
		pt := &c.parts[int(cc.partOff)+j]
		gi := c.evBase[pt.rank] + pt.event
		in[j] = collIn{rank: int(pt.rank), startD: st.startD[gi], startAttr: st.startAttr[gi]}
	}
	outD := st.collOutD[cc.partOff : int(cc.partOff)+p]
	outAttr := st.collOutAttr[cc.partOff : int(cc.partOff)+p]
	outPred := st.collOutPred[cc.partOff : int(cc.partOff)+p]
	if cc.kind == trace.KindScan {
		// Scan always uses the explicit prefix chain (see
		// resolveCollective).
		resolveExplicitKernel(&st.smp, cc.kind, cc.bytes, cc.root, in, &st.csc, outD, outAttr, outPred)
		return
	}
	switch model.Collectives {
	case CollectiveApprox:
		resolveApproxKernel(&st.smp, cc.kind, cc.bytes, in, outD, outAttr, outPred)
	case CollectiveExplicit:
		resolveExplicitKernel(&st.smp, cc.kind, cc.bytes, cc.root, in, &st.csc, outD, outAttr, outPred)
	default:
		// Unknown mode: the streaming engine resolves nothing; clear the
		// reused buffers so stale values from a prior replay can't leak.
		for j := range outD {
			outD[j], outAttr[j], outPred[j] = 0, Attribution{}, 0
		}
	}
}
