package core

import (
	"mpgraph/internal/trace"
)

// Shared propagation kernels.
//
// The streaming analyzer (Analyze) and the compiled replayer
// (ReplayCompiled) must produce byte-identical results: same delays,
// same attribution, same critical path. Floating-point arithmetic is
// deterministic but not associative, so "the same math" is not
// enough — both engines must execute the same operation sequences in
// the same order. Every delay/attribution computation both engines
// perform therefore lives here as pure functions; the engines differ
// only in how they discover the graph structure (streamed matching vs
// a precompiled instruction tape).

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

// resolveCompletion computes the shared path contributions (paper
// Fig. 2 / Eq. 1 structure) once both posts and all four deltas are
// known:
//
//	cData = D(send start) + δ_λ1 + δ_t(d)   — the data path
//	cRecv = max(cData, D(recv post))        — transfer completion
//
//mpg:hotpath
func (x *xfer) resolveCompletion() {
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

// sendCompletionKernel applies Eq. 1's sender rule: the local path
// carries δ_os1, the remote path is the transfer completion plus the
// acknowledgment latency δ_λ2 (and, anchored, the receiver-side noise
// that Eq. 1's third term includes). Both candidate attributions are
// returned; the caller merges and picks.
//
//mpg:hotpath
func sendCompletionKernel(mode PropagationMode, startD float64, startAttr Attribution, dOS1 float64, w int64, x *xfer) (local, remote float64, localAttr, remoteAttr Attribution) {
	if mode == PropagationAnchored {
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
		return local, remote, localAttr, remoteAttr
	}
	local = startD + dOS1
	remote = x.cRecv + x.dLat2
	localAttr = startAttr.addOwn(dOS1)
	remoteAttr = x.sendPerspective().addMsg(x.dLat2)
	return local, remote, localAttr, remoteAttr
}

// recvCompletionKernel applies Eq. 1's receiver rule: the local path
// carries δ_os2, the remote path is the data arrival.
//
//mpg:hotpath
func recvCompletionKernel(mode PropagationMode, startD float64, startAttr Attribution, w int64, x *xfer) (local, remote float64, localAttr, remoteAttr Attribution) {
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
		return local, remote, localAttr, remoteAttr
	}
	local = startD + x.dOS2
	remote = x.cRecv
	localAttr = startAttr.addOwn(x.dOS2)
	remoteAttr = x.recvPerspective()
	return local, remote, localAttr, remoteAttr
}

// combineLocalKernel folds a local-edge delta into the running delay.
// Additive: D(end) = D(start) + δ. Anchored: the event's traced
// duration absorbs the delta: D(end) = max(D(start), D(start)+δ−w).
//
//mpg:hotpath
func combineLocalKernel(mode PropagationMode, startD float64, startAttr Attribution, delta float64, w int64) (float64, Attribution) {
	if mode == PropagationAnchored {
		v := startD + delta - float64(w)
		if v < startD {
			return startD, startAttr
		}
		return v, startAttr.addOwn(delta - float64(w))
	}
	return startD + delta, startAttr.addOwn(delta)
}

// mergeStats folds one remote contribution into the local one,
// recording absorbed/propagated statistics for the rank and its
// current region.
//
//mpg:hotpath
func mergeStats(rr *RankResult, reg *RegionStats, local, remote float64) float64 {
	if remote > local {
		rr.Propagated++
		reg.Propagated++
		rr.DelayInduced += remote - local
		return remote
	}
	rr.Absorbed++
	reg.Absorbed++
	rr.SlackAbsorbed += local - remote
	return local
}

// collIn is one collective participant's inbound state as the
// resolution kernels see it, in ascending world-rank order.
type collIn struct {
	rank      int
	startD    float64
	startAttr Attribution
}

// resolveApproxKernel is the paper's Fig. 4 model: every participant's
// inbound delay plus l_δ (ceil(log2 p) samples of noise+latency for
// the symmetric collectives; a single sample for the rooted ones, the
// paper's Reduce simplification) feeds a max that is propagated back
// to all participants. outPred[i] is the index (into in) of the
// participant whose start subevent anchors the winning path.
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
