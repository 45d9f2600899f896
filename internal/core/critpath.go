package core

// Critical-path extraction: when Options.RecordCritPath is set, the
// analyzer keeps one entry per record — the delays at its start and
// end subevents and the start subevent whose path won the end merge
// (the local-vs-remote decision of an Eq. 1/Eq. 2 completion or of the
// collective hub). Recording reads the decisions the merges already
// make: no sample is drawn and no delay is altered, so instrumented
// runs are byte-identical to uninstrumented ones.
//
// Everything else on the path is derived. A start subevent's only
// inbound edge is the local one from the rank's previous end, and event
// 0's start is the zero-delay source; a predecessor's delay is read from
// the predecessor's own entry; and the winning edge's kind is the class
// of the record's wait state. After propagation the chain is walked
// backward from the perturbed makespan sink. Each backward step carries
// the delay increment of its winning edge (delta = D(node) − D(pred)),
// so the per-step deltas telescope exactly to the sink's final delay in
// every propagation mode; aggregating them per rank and per EdgeKind
// turns "the run is N cycles slower" into "which edges caused it".

// critNode is one record's entry: D at its start and end subevents,
// the start subevent (winRank, winEvent) whose path won the end merge —
// the record's own start, a transfer's post, or a collective winner's
// start — and the record's wait state, which names the winning edge.
type critNode struct {
	startD, endD float64
	winEvent     int64
	winRank      int32
	state        WaitState
}

// newCritNode builds a record's entry from the start subevent win
// whose path won its end merge.
func newCritNode(startD, endD float64, win NodeRef, state WaitState) critNode {
	return critNode{startD: startD, endD: endD, winEvent: win.Event, winRank: int32(win.Rank), state: state}
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

// The streaming analyzer's log is made of critBlockLen-node blocks,
// carved up to critSlabBlocks at a time from shared slabs.
const (
	critBlockShift = 6
	critBlockLen   = 1 << critBlockShift
	critSlabBlocks = 64
)

// critLog holds the recorded entries, one critNode per event in
// per-rank record order. The replay engines know every rank's event
// count up front and fill flat, one preallocated slice per rank. The
// streaming analyzer does not, so it fills blocks: per rank, a list of
// fixed-size blocks taken from shared slabs. A node is written once
// and never copied by slice growth.
type critLog struct {
	flat   [][]critNode
	blocks [][][]critNode

	slab       []critNode
	slabBlocks int
}

// newCritBlocks returns an empty block log for n ranks. A slab holds
// one block per rank, up to critSlabBlocks, so small traces stay small.
func newCritBlocks(n int) *critLog {
	return &critLog{blocks: make([][][]critNode, n), slabBlocks: min(n, critSlabBlocks)}
}

// add stores the node of the rank's event-th record; events arrive in
// record order.
func (l *critLog) add(rank int, event int64, n critNode) {
	blocks := l.blocks[rank]
	b := event >> critBlockShift
	if b == int64(len(blocks)) {
		if len(l.slab) == 0 {
			l.slab = make([]critNode, l.slabBlocks*critBlockLen)
		}
		blocks = append(blocks, l.slab[:critBlockLen:critBlockLen])
		l.slab = l.slab[critBlockLen:]
		l.blocks[rank] = blocks
	}
	blocks[b][event&(critBlockLen-1)] = n
}

// at returns the entry of the rank's event-th record.
func (l critLog) at(rank int, event int64) *critNode {
	if l.blocks != nil {
		return &l.blocks[rank][event>>critBlockShift][event&(critBlockLen-1)]
	}
	return &l.flat[rank][event]
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
// per-rank event counts.
func buildCritPath(res *Result, crit critLog) *CriticalPath {
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

	// Backward walk. The chain is acyclic (every predecessor is
	// causally earlier), so it terminates at a first-event start; the
	// step bound is a defensive backstop only.
	var rev []PathStep
	cur := cp.Sink
	for limit := 2*res.Events + 1; limit > 0; limit-- {
		n := crit.at(cur.Rank, cur.Event)
		if !cur.End && cur.Event == 0 { // the zero-delay source
			rev = append(rev, PathStep{Node: cur, Kind: EdgeLocal, Delay: n.startD})
			break
		}
		var step PathStep
		var pred NodeRef
		if cur.End {
			step = PathStep{Node: cur, Kind: n.state.edgeKind(), Delay: n.endD}
			pred = NodeRef{Rank: int(n.winRank), Event: n.winEvent}
			step.Delta = n.endD - crit.at(pred.Rank, pred.Event).startD
		} else {
			step = PathStep{Node: cur, Kind: EdgeLocal, Delay: n.startD}
			pred = NodeRef{Rank: cur.Rank, Event: cur.Event - 1, End: true}
			step.Delta = n.startD - crit.at(pred.Rank, pred.Event).endD
		}
		rev = append(rev, step)
		cp.KindBlame[step.Kind] += step.Delta
		cp.RankBlame[cur.Rank] += step.Delta
		cur = pred
	}
	cp.Steps = make([]PathStep, len(rev))
	for i, s := range rev {
		cp.Steps[len(rev)-1-i] = s
	}
	return cp
}
