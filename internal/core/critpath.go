package core

// Critical-path extraction: when Options.RecordCritPath is set, the
// analyzer keeps one entry per record — D at its end subevent and the
// start subevent whose path won the end merge (the local-vs-remote
// decision of an Eq. 1/Eq. 2 completion or of the collective hub), with
// D there. Recording reads the decisions the merges already make: no
// sample is drawn and no delay is altered, so instrumented runs are
// byte-identical to uninstrumented ones.
//
// Everything else on the path is derived. A start subevent's only
// inbound edge is the local one from the rank's previous end, and event
// 0's start is the zero-delay source, so each entry links to the entry
// of the end just before its winning start; a predecessor's delay is
// read from that entry; and the winning edge's kind is the class of the
// record's wait state. After propagation the chain is walked backward
// from the perturbed makespan sink. Each backward step carries the
// delay increment of its winning edge (delta = D(node) − D(pred)), so
// the per-step deltas telescope exactly to the sink's final delay in
// every propagation mode; aggregating them per rank and per EdgeKind
// turns "the run is N cycles slower" into "which edges caused it".
//
// The compiled replay keeps every entry in one flat array indexed like
// its events. The streaming analyzer counts references instead and
// keeps only the entries some chain can still reach (critPool).

// critNode is one record's entry: D at its end subevent; the start
// subevent (winRank, winEvent) whose path won the end merge — the
// record's own start, a transfer's post, or a collective winner's start
// — and D there, the value the merge compared; the record's wait state,
// which names the winning edge; and pred, the node of the end subevent
// just before the winning start (−1 when that start is a rank's event
// 0, the zero-delay source). The chain end → pred → pred… is the
// critical path. refs counts the references that keep a streaming
// node live; the compiled replay leaves it 0.
type critNode struct {
	endD, winStartD float64
	winEvent        int64
	winRank         int32
	pred            int32
	refs            int32
	state           WaitState
}

// sendPostWon reports whether a transfer's remote completion path ran
// through the sender's post rather than the receiver's: the data path
// dominated the transfer completion, or the completion is an anchored
// receive, whose remote path is always the data arrival.
//
//mpg:hotpath
func sendPostWon(x *xfer, state WaitState, p PropagationMode) bool {
	return x.cRecvFromData || state == WaitLateSender && p == PropagationAnchored
}

// edgeKind classifies the edge that won an end merge with this wait
// state.
func (s WaitState) edgeKind() EdgeKind {
	switch s {
	case WaitLateSender, WaitLateReceiver:
		return EdgeMessage
	case WaitCollective:
		return EdgeCollective
	}
	return EdgeLocal
}

// critPool is the streaming analyzer's critical-path log: a pool of
// reference-counted nodes. A node is referenced by its rank's frontier
// (the rank's latest finished record), by each posted side of a
// transfer and each collective participant that began right after it,
// and by the pred of every live node. When the last reference goes, the
// node joins the free list (linked through pred) and drops its own
// pred. What stays live is the argmax chains that can still win: the
// path behind each rank's frontier plus the window of in-flight
// operations, not the trace. Nodes are appended only when the free
// list is empty, so len(nodes) is the live high-water mark.
type critPool struct {
	nodes []critNode
	free  int32   // head of the free list, −1 when empty
	front []int32 // per rank, the latest finished record's node; −1 before it
}

func newCritPool(nranks int) *critPool {
	p := &critPool{free: -1, front: make([]int32, nranks)}
	for r := range p.front {
		p.front[r] = -1
	}
	return p
}

// hold takes a reference to node i (none when i is −1) and returns i.
func (p *critPool) hold(i int32) int32 {
	if i >= 0 {
		p.nodes[i].refs++
	}
	return i
}

// release drops a reference to node i. A node left with none goes on
// the free list and releases its pred in turn, iteratively. A count
// driven below zero by a double release stops there instead of freeing
// the node twice.
func (p *critPool) release(i int32) {
	for i >= 0 {
		n := &p.nodes[i]
		if n.refs--; n.refs != 0 {
			return
		}
		i, n.pred, p.free = n.pred, p.free, i
	}
}

// push makes n the rank's frontier: n holds its pred, the frontier
// holds n, and the previous frontier loses the frontier's reference.
func (p *critPool) push(rank int, n critNode) {
	p.hold(n.pred)
	n.refs = 1
	i := p.free
	if i >= 0 {
		p.free = p.nodes[i].pred
		p.nodes[i] = n
	} else {
		i = int32(len(p.nodes))
		p.nodes = append(p.nodes, n)
	}
	p.release(p.front[rank])
	p.front[rank] = i
}

// PathStep is one node of the extracted critical path with the delay
// its inbound winning edge contributed.
type PathStep struct {
	// Node is the subevent on the path.
	Node NodeRef
	// Kind classifies the winning edge into Node (local noise, message
	// latency/bandwidth, or collective). Meaningless for the first step.
	Kind EdgeKind
	// Delta is the delay the winning edge added: D(Node) − D(pred).
	// Zero deltas mark path segments that ride along without hurting.
	Delta float64
	// Delay is the cumulative delay D at Node.
	Delay float64
}

// CriticalPath is the blame decomposition of the perturbed makespan:
// the argmax chain from a zero-delay source to the makespan sink, plus
// per-kind and per-rank aggregates of the per-edge deltas.
type CriticalPath struct {
	// Sink is the end subevent of the rank that defines the perturbed
	// makespan (argmax over ranks of OrigEnd + FinalDelay; ties break
	// to the lowest rank).
	Sink NodeRef
	// SinkDelay is D at the sink — the sum of every step's Delta.
	SinkDelay float64
	// SinkOffset is OrigEnd(sink rank) − max over ranks of OrigEnd
	// (≤ 0). The reported MakespanDelay equals SinkDelay + SinkOffset:
	// when the perturbed sink is not also the traced-longest rank, part
	// of its delay is hidden by the slack other ranks already had.
	SinkOffset float64
	// Steps is the path in source → sink order. Steps[0] is the
	// zero-delay source (always the start subevent of some rank's first
	// event); its Delta is 0.
	Steps []PathStep
	// KindBlame aggregates Delta per winning-edge kind, indexed by
	// EdgeKind (EdgeLocal, EdgeMessage, EdgeCollective). The entries
	// sum to SinkDelay.
	KindBlame [3]float64
	// RankBlame aggregates Delta per rank — attributed to the rank
	// owning the node the delay materialized at. Sums to SinkDelay.
	RankBlame []float64
}

// buildCritPath walks the recorded argmax chain backward from the
// makespan sink and aggregates blame. res.Ranks must hold the final
// per-rank event counts, and top[r] must be the node of rank r's last
// record.
func buildCritPath(res *Result, nodes []critNode, top []int32) *CriticalPath {
	sinkRank := 0
	best := 0.0
	var origMax int64
	for r := range res.Ranks {
		if oe := res.Ranks[r].OrigEnd; oe > origMax {
			origMax = oe
		}
		v := float64(res.Ranks[r].OrigEnd) + res.Ranks[r].FinalDelay
		if r == 0 || v > best {
			best = v
			sinkRank = r
		}
	}
	cp := &CriticalPath{
		Sink:       NodeRef{Rank: sinkRank, Event: res.Ranks[sinkRank].Events - 1, End: true},
		SinkDelay:  res.Ranks[sinkRank].FinalDelay,
		SinkOffset: float64(res.Ranks[sinkRank].OrigEnd - origMax),
		RankBlame:  make([]float64, res.NRanks),
	}

	// Backward walk, two steps per node: its end subevent, then the
	// winning start. The chain is acyclic (every predecessor is causally
	// earlier), so it terminates at a first-event start; the step bound
	// is a defensive backstop only.
	var rev []PathStep
	add := func(s PathStep) {
		rev = append(rev, s)
		cp.KindBlame[s.Kind] += s.Delta
		cp.RankBlame[s.Node.Rank] += s.Delta
	}
	cur, i := cp.Sink, top[sinkRank]
	for limit := res.Events + 1; limit > 0; limit-- {
		n := &nodes[i]
		add(PathStep{Node: cur, Kind: n.state.edgeKind(), Delta: n.endD - n.winStartD, Delay: n.endD})
		start := NodeRef{Rank: int(n.winRank), Event: n.winEvent}
		if start.Event == 0 { // the zero-delay source
			rev = append(rev, PathStep{Node: start, Kind: EdgeLocal, Delay: n.winStartD})
			break
		}
		add(PathStep{Node: start, Kind: EdgeLocal, Delta: n.winStartD - nodes[n.pred].endD, Delay: n.winStartD})
		cur, i = NodeRef{Rank: start.Rank, Event: start.Event - 1, End: true}, n.pred
	}
	cp.Steps = make([]PathStep, len(rev))
	for i, s := range rev {
		cp.Steps[len(rev)-1-i] = s
	}
	return cp
}
