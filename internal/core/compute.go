package core

import (
	"mpgraph/internal/obsv"
	"mpgraph/internal/trace"
)

// Propagation steps.
//
// The streaming analyzer (Analyze) and the compiled replayer
// (ReplayCompiled) must produce byte-identical results: same delays,
// same attribution, same critical path. Floating-point arithmetic is
// deterministic but not associative, so "the same math" is not
// enough — both engines must execute the same operation sequences in
// the same order. Each propagation step is therefore one function
// here that both engines call: the begin step, the match draws, the
// collective resolution, the end step of every record kind with its
// merge, the commit and the metrics flush. Every draw goes through the
// sampler. The engines differ only in how they find a step's operands
// (streamed matching vs a precompiled instruction tape), and in the
// two things that read engine-specific structure: the critical-path
// winner of an end merge (endWinner) and IntervalPoint assembly.

// engineCounts are the structure-only engine counters: the graph's
// edges by kind, the matched transfers and the collectives. The
// streaming analyzer counts them; Compile copies them onto the
// program, since every replay walks the same graph.
type engineCounts struct {
	localEdges, msgEdges, collEdges int64
	matches, colls                  int64
}

// flushMetrics records one run's engine counters and sample counts;
// runs names the counter of completed runs (analyses or replays).
func flushMetrics(m *obsv.Registry, runs string, res *Result, cnt *engineCounts, smp *sampler) {
	if m == nil {
		return
	}
	m.Counter(runs).Inc()
	m.Counter("core_events_total").Add(res.Events)
	m.Counter("core_edges_local_total").Add(cnt.localEdges)
	m.Counter("core_edges_message_total").Add(cnt.msgEdges)
	m.Counter("core_edges_collective_total").Add(cnt.collEdges)
	m.Counter("core_matches_total").Add(cnt.matches)
	m.Counter("core_collectives_total").Add(cnt.colls)
	m.Counter("core_samples_noise_total").Add(smp.nNoise)
	m.Counter("core_samples_message_total").Add(smp.nMsg)
	m.Gauge("core_window_high_water").SetMax(float64(res.WindowHighWater))
}

// beginKernel is a record's start subevent: the compute gap since the
// previous end draws its noise (one δ_os draw, or one per started
// Model.NoiseQuantum of the gap), and under negative perturbations the
// §4.3 clamp keeps the event from beginning before its predecessor's
// perturbed end. A rank's first record has gap 0 and prevD 0, so it
// draws nothing and never clamps. The begin step is the most frequent
// one, so its exponential draw is inlined here rather than taken
// through osNoise's frame (DESIGN §8.2 measures the difference).
//
//mpg:hotpath
func beginKernel(smp *sampler, res *Result, rank int, gap int64, prevD float64, prevAttr Attribution) (float64, Attribution) {
	var delta float64
	switch {
	case gap <= 0:
	case smp.model.NoiseQuantum > 0:
		delta = smp.quantizedNoise(rank, gap)
	case smp.expNoise:
		delta = smp.expNoiseDraw(rank)
	default:
		delta = smp.osNoise(rank)
	}
	res.Ranks[rank].InjectedLocal += delta
	d := prevD + delta
	if smp.model.AllowNegative {
		if floor := prevD - float64(gap); d < floor {
			d = floor
			res.OrderViolations++
		}
	}
	return d, prevAttr.addOwn(delta)
}

// xfer is the value half of one point-to-point transfer: everything
// that depends on the perturbation model's samples. The structural
// half (who talks to whom, payload size, FIFO position) lives in
// msgState during streaming and in compiledMsg after compilation.
type xfer struct {
	sendStartD float64 // D at the sender's post (start subevent)
	recvPostD  float64 // D at the receiver's post
	sendAttr   Attribution
	recvAttr   Attribution

	// Deltas sampled at match time.
	dLat1, dPerByte, dLat2, dOS2 float64
	cData, cRecv                 float64
	// cRecvFromData records which side's path dominated the transfer
	// completion (true: the sender's data path; false: the receiver's
	// post), which decides attribution perspective.
	cRecvFromData bool
}

// sampleMatch draws a matched transfer's deltas once both posts are
// known — δ_λ1, δ_t(d), δ_λ2, then the receiver's δ_os2, in that
// order — and resolves its completion (paper Fig. 2 / Eq. 1
// structure):
//
//	cData = D(send start) + δ_λ1 + δ_t(d)   — the data path
//	cRecv = max(cData, D(recv post))        — transfer completion
//
//mpg:hotpath
func (s *sampler) sampleMatch(x *xfer, bytes int64, recvRank int) {
	x.dLat1 = s.latency()
	x.dPerByte = s.perByte(bytes)
	x.dLat2 = s.latency()
	x.dOS2 = s.osNoise(recvRank)
	x.cData = x.sendStartD + x.dLat1 + x.dPerByte
	x.cRecv = x.cData
	x.cRecvFromData = true
	if x.recvPostD > x.cRecv {
		x.cRecv = x.recvPostD
		x.cRecvFromData = false
	}
}

// recvPerspective is the attribution of the transfer completion as
// seen by the receiving rank: a data-path win is remote, an own-post
// win is local.
//
//mpg:hotpath
func (x *xfer) recvPerspective() Attribution {
	if x.cRecvFromData {
		return x.sendAttr.asRemote().addMsg(x.dLat1 + x.dPerByte)
	}
	return x.recvAttr
}

// sendPerspective is the attribution of the transfer completion as
// seen by the sending rank: its own data path stays local, a
// receiver-post win is remote.
//
//mpg:hotpath
func (x *xfer) sendPerspective() Attribution {
	if x.cRecvFromData {
		return x.sendAttr.addMsg(x.dLat1 + x.dPerByte)
	}
	return x.recvAttr.asRemote()
}

// mergeEnd is the max() merge of an end subevent: it folds the remote
// path into the local one, records absorbed/propagated statistics for
// the rank and its current region, and returns the winner. The remote
// path wins only when strictly later; its excess over the local path
// is then the wait, classified as state.
//
//mpg:hotpath
func mergeEnd(rr *RankResult, reg *RegionStats, local, remote float64, localAttr, remoteAttr Attribution, state WaitState) (float64, Attribution, float64, WaitState) {
	if remote > local {
		rr.Propagated++
		reg.Propagated++
		rr.DelayInduced += remote - local
		return remote, remoteAttr, remote - local, state
	}
	rr.Absorbed++
	reg.Absorbed++
	rr.SlackAbsorbed += local - remote
	return local, localAttr, 0, WaitNone
}

// localEndKernel ends an Init or Finalize record: one δ_os draw folded
// into the running delay. Additive: D(end) = D(start) + δ. Anchored:
// the event's traced duration w absorbs the delta:
// D(end) = max(D(start), D(start)+δ−w).
//
//mpg:hotpath
func localEndKernel(smp *sampler, rr *RankResult, rank int, startD float64, startAttr Attribution, w int64) (float64, Attribution) {
	delta := smp.osNoise(rank)
	rr.InjectedLocal += delta
	if smp.model.Propagation == PropagationAnchored {
		v := startD + delta - float64(w)
		if v < startD {
			return startD, startAttr
		}
		return v, startAttr.addOwn(delta - float64(w))
	}
	return startD + delta, startAttr.addOwn(delta)
}

// sendCompletionKernel ends a blocking Send or a wait on an Isend by
// Eq. 1's sender rule: the local path draws and carries δ_os1, the
// remote path is the transfer completion plus the acknowledgment
// latency δ_λ2 (and, anchored, the receiver-side noise that Eq. 1's
// third term includes). A remote win is a late receiver.
//
//mpg:hotpath
func sendCompletionKernel(smp *sampler, rr *RankResult, reg *RegionStats, rank int, startD float64, startAttr Attribution, w int64, x *xfer) (float64, Attribution, float64, WaitState) {
	dOS1 := smp.osNoise(rank)
	rr.InjectedLocal += dOS1
	var local, remote float64
	var localAttr, remoteAttr Attribution
	if smp.model.Propagation == PropagationAnchored {
		local = startD
		localAttr = startAttr
		if v := startD + dOS1 - float64(w); v > local {
			local = v
			localAttr = startAttr.addOwn(dOS1 - float64(w))
		}
		remote = x.cRecv + x.dOS2 + x.dLat2 - float64(w)
		remoteAttr = x.sendPerspective()
		remoteAttr.RemoteNoise += x.dOS2
		remoteAttr.MsgDelta += x.dLat2 - float64(w)
	} else {
		local = startD + dOS1
		remote = x.cRecv + x.dLat2
		localAttr = startAttr.addOwn(dOS1)
		remoteAttr = x.sendPerspective().addMsg(x.dLat2)
	}
	return mergeEnd(rr, reg, local, remote, localAttr, remoteAttr, WaitLateReceiver)
}

// recvCompletionKernel ends a blocking Recv or a wait on an Irecv by
// Eq. 1's receiver rule: the local path carries the δ_os2 drawn at
// match time, the remote path is the data arrival. A remote win is a
// late sender.
//
//mpg:hotpath
func recvCompletionKernel(mode PropagationMode, rr *RankResult, reg *RegionStats, startD float64, startAttr Attribution, w int64, x *xfer) (float64, Attribution, float64, WaitState) {
	rr.InjectedLocal += x.dOS2
	var local, remote float64
	var localAttr, remoteAttr Attribution
	if mode == PropagationAnchored {
		local = startD
		localAttr = startAttr
		if v := startD + x.dOS2 + x.dLat1 + x.dPerByte - float64(w); v > local {
			local = v
			localAttr = startAttr.addOwn(x.dOS2).addMsg(x.dLat1 + x.dPerByte - float64(w))
		}
		remote = x.cData + x.dOS2 - float64(w)
		remoteAttr = x.sendAttr.asRemote().addMsg(x.dLat1 + x.dPerByte - float64(w))
		remoteAttr.OwnNoise += x.dOS2
	} else {
		local = startD + x.dOS2
		remote = x.cRecv
		localAttr = startAttr.addOwn(x.dOS2)
		remoteAttr = x.recvPerspective()
	}
	return mergeEnd(rr, reg, local, remote, localAttr, remoteAttr, WaitLateSender)
}

// collEndKernel ends a collective record: the local path is the start
// subevent, the remote path the participant's resolved contribution
// (less the traced duration w when anchored). A remote win is
// collective imbalance.
//
//mpg:hotpath
func collEndKernel(mode PropagationMode, rr *RankResult, reg *RegionStats, startD float64, startAttr Attribution, w int64, outD float64, outAttr Attribution) (float64, Attribution, float64, WaitState) {
	if mode == PropagationAnchored {
		outD -= float64(w)
	}
	return mergeEnd(rr, reg, startD, outD, startAttr, outAttr, WaitCollective)
}

// commitKernel commits a record's end subevent and returns D there:
// under negative perturbations the §4.3 clamp keeps the event from
// ending before it begins; then the event counts, the delay statistics
// and the region's first-seen delay and growth take the value.
//
//mpg:hotpath
func commitKernel(res *Result, rr *RankResult, reg *RegionStats, allowNegative bool, startD, endD float64, w int64) float64 {
	if allowNegative {
		if floor := startD - float64(w); endD < floor {
			endD = floor
			res.OrderViolations++
		}
	}
	rr.Events++
	res.Events++
	res.DelayStats.Add(endD)
	if !reg.firstSeen {
		reg.firstSeen = true
		reg.firstDelay = endD
	}
	reg.Events++
	reg.DelayGrowth = endD - reg.firstDelay
	return endD
}

// collIn is one collective participant's inbound state as the
// resolution kernels see it, in ascending world-rank order.
type collIn struct {
	rank      int
	startD    float64
	startAttr Attribution
}

// resolveCollKernel resolves a complete collective under the model's
// collective mode. outPred[i] is the index (into in) of the
// participant whose start subevent anchors member i's winning path.
// Scan's forward-only dependence has no Fig. 4 hub analog (the hub
// would let later ranks delay earlier ones); the explicit prefix chain
// is already compact (O(p)), so both modes use it. An unknown mode
// resolves nothing: zero contributions, won by the lowest rank.
//
//mpg:hotpath
func resolveCollKernel(smp *sampler, kind trace.Kind, bytes int64, root int32, in []collIn, sc *collScratch, outD []float64, outAttr []Attribution, outPred []int32) {
	mode := smp.model.Collectives
	if kind == trace.KindScan {
		mode = CollectiveExplicit
	}
	switch mode {
	case CollectiveApprox:
		resolveApproxKernel(smp, kind, bytes, in, outD, outAttr, outPred)
	case CollectiveExplicit:
		resolveExplicitKernel(smp, kind, bytes, root, in, sc, outD, outAttr, outPred)
	default:
		clear(outD)
		clear(outAttr)
		clear(outPred)
	}
}

// resolveApproxKernel is the paper's Fig. 4 model: every participant's
// inbound delay plus l_δ (ceil(log2 p) samples of noise+latency for
// the symmetric collectives; a single sample for the rooted ones, the
// paper's Reduce simplification) feeds a max that is propagated back
// to all participants.
//
//mpg:hotpath
func resolveApproxKernel(smp *sampler, kind trace.Kind, bytes int64, in []collIn, outD []float64, outAttr []Attribution, outPred []int32) {
	p := len(in)
	rounds := ceilLog2(p)
	if kind.IsRooted() {
		rounds = 1
	}
	lMax := 0.0
	winIdx := -1
	var winnerNoise, winnerMsg float64
	for i := range in {
		noise, msg := 0.0, 0.0
		for j := 0; j < rounds; j++ {
			noise += smp.osNoise(in[i].rank)
			msg += smp.latency()
			if smp.model.CollectiveBytes {
				msg += smp.perByte(roundBytes(kind, bytes, j, p))
			}
		}
		if v := in[i].startD + noise + msg; v > lMax || winIdx < 0 {
			lMax = v
			winIdx = i
			winnerNoise, winnerMsg = noise, msg
		}
	}
	winAttr := in[winIdx].startAttr.addOwn(winnerNoise).addMsg(winnerMsg)
	for i := range in {
		outD[i] = lMax
		outPred[i] = int32(winIdx)
		if i == winIdx {
			outAttr[i] = winAttr
		} else {
			outAttr[i] = winAttr.asRemote()
		}
	}
}

// collScratch holds the explicit-pattern working arrays so both
// engines can reuse them across collectives (and, in the compiled
// replayer, across replays).
type collScratch struct {
	d       []float64
	a       []Attribution
	org     []int
	next    []float64
	nextA   []Attribution
	nextOrg []int
}

func (s *collScratch) ensure(p int) {
	if cap(s.d) < p {
		s.d = make([]float64, p)
		s.a = make([]Attribution, p)
		s.org = make([]int, p)
		s.next = make([]float64, p)
		s.nextA = make([]Attribution, p)
		s.nextOrg = make([]int, p)
	}
}

// resolveExplicitKernel builds the collective's actual communication
// pattern in delay space: dissemination rounds for the symmetric
// collectives, binomial trees for Bcast/Reduce, linear exchanges for
// Gather/Scatter, the prefix chain for Scan. outPred[i] is the index
// (into in) of the participant whose start subevent anchors member i's
// winning adopt chain.
//
//mpg:hotpath
func resolveExplicitKernel(smp *sampler, kind trace.Kind, bytes int64, root int32, in []collIn, sc *collScratch, outD []float64, outAttr []Attribution, outPred []int32) {
	p := len(in)
	//mpg:lint-ignore hotpathprop lazy scratch growth: the collective working arrays grow monotonically with participant count and are reused across events
	sc.ensure(p)
	D := sc.d[:p]
	A := sc.a[:p]
	// org tracks, per member, which participant's start subevent
	// anchors the member's current winning path (for critical-path
	// extraction); adoption chains inherit the source's origin.
	org := sc.org[:p]
	rootIdx := 0
	for i := range in {
		n := smp.osNoise(in[i].rank)
		D[i] = in[i].startD + n
		A[i] = in[i].startAttr.addOwn(n)
		org[i] = i
		if kind.IsRooted() && int32(in[i].rank) == root {
			rootIdx = i
		}
	}
	// adopt folds a cross-member contribution into dst, reclassifying
	// the source's noise as remote.
	//mpg:lint-ignore hotpathprop non-escaping closure, stack-allocated; pinned at 0 allocs by TestResolveExplicitKernelAllocs
	adopt := func(dst, src int, msg float64) {
		if v := D[src] + msg; v > D[dst] {
			D[dst] = v
			A[dst] = A[src].asRemote().addMsg(msg)
			org[dst] = org[src]
		}
	}
	//mpg:lint-ignore hotpathprop non-escaping closure, stack-allocated; pinned at 0 allocs by TestResolveExplicitKernelAllocs
	bytesOf := func(round int) int64 { return roundBytes(kind, bytes, round, p) }
	//mpg:lint-ignore hotpathprop non-escaping closure, stack-allocated; pinned at 0 allocs by TestResolveExplicitKernelAllocs
	msgDelta := func(round int) float64 {
		d := smp.latency()
		if smp.model.CollectiveBytes {
			d += smp.perByte(bytesOf(round))
		}
		return d
	}
	switch kind {
	case trace.KindBcast:
		for j := 0; (1 << uint(j)) < p; j++ {
			step := 1 << uint(j)
			for rel := 0; rel < step && rel+step < p; rel++ {
				src := (rel + rootIdx) % p
				dst := (rel + step + rootIdx) % p
				adopt(dst, src, msgDelta(j))
			}
		}
	case trace.KindReduce, trace.KindGather:
		// Children push toward the root; non-roots keep their own
		// delay (they complete after sending).
		if kind == trace.KindGather {
			for i := range D {
				if i == rootIdx {
					continue
				}
				adopt(rootIdx, i, msgDelta(0))
			}
		} else {
			for j := 0; (1 << uint(j)) < p; j++ {
				step := 1 << uint(j)
				for rel := step; rel < p; rel += step << 1 {
					src := (rel + rootIdx) % p
					dst := (rel - step + rootIdx) % p
					adopt(dst, src, msgDelta(j))
				}
			}
		}
	case trace.KindScatter:
		for i := range D {
			if i == rootIdx {
				continue
			}
			adopt(i, rootIdx, msgDelta(0))
		}
	case trace.KindScan:
		// Prefix chain: member i adopts member i−1's delay — later
		// ranks inherit earlier ranks' perturbations, never the
		// reverse.
		for i := 1; i < p; i++ {
			adopt(i, i-1, msgDelta(0))
		}
	default: // dissemination for Barrier/Allreduce/Allgather/Alltoall/CommSplit
		rounds := ceilLog2(p)
		next := sc.next[:p]
		nextA := sc.nextA[:p]
		nextOrg := sc.nextOrg[:p]
		for j := 0; j < rounds; j++ {
			step := (1 << uint(j)) % p
			for i := 0; i < p; i++ {
				src := (i - step + p) % p
				msg := msgDelta(j)
				if v := D[src] + msg; v > D[i] {
					next[i] = v
					nextA[i] = A[src].asRemote().addMsg(msg)
					nextOrg[i] = org[src]
				} else {
					next[i] = D[i]
					nextA[i] = A[i]
					nextOrg[i] = org[i]
				}
			}
			copy(D, next)
			copy(A, nextA)
			copy(org, nextOrg)
		}
	}
	for i := range in {
		outD[i] = D[i]
		outAttr[i] = A[i]
		outPred[i] = int32(org[i])
	}
}

// orderViolationWarning is the §4.3 clamp warning, shared by both
// engines so the warning strings compare equal.
func orderViolationWarning(res *Result) {
	if res.OrderViolations > 0 {
		res.warnf("%d negative perturbations were clamped to preserve event order (§4.3)", res.OrderViolations)
	}
}
