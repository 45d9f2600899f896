package core

// Critical-path extraction: when Options.RecordCritPath is set, the
// analyzer records the argmax predecessor at every max() merge — the
// local-vs-remote decision of Eq. 1/Eq. 2 completions and of the
// collective hub — without touching the propagated delays themselves
// (recording reads the same comparisons merge() already makes; no
// sample is drawn and no delay is altered, so instrumented runs are
// byte-identical to uninstrumented ones).
//
// After propagation, the recorded chain is walked backward from the
// perturbed makespan sink. Each backward step carries the delay
// increment of its winning edge (delta = D(node) − D(pred)), so the
// per-step deltas telescope exactly to the sink's final delay in every
// propagation mode; aggregating them per rank and per EdgeKind turns
// "the run is N cycles slower" into "which edges caused it".

// critStep is the recorded argmax decision at one subevent: the
// predecessor whose path won the merge, that predecessor's delay, this
// subevent's delay, and the kind of the winning edge.
type critStep struct {
	pred    NodeRef
	predD   float64
	d       float64
	kind    EdgeKind
	hasPred bool
}

// critNode holds both subevents of one record.
type critNode struct {
	start, end critStep
}

// The streaming analyzer's log is made of critBlockLen-node blocks,
// carved up to critSlabBlocks at a time from shared slabs.
const (
	critBlockShift = 6
	critBlockLen   = 1 << critBlockShift
	critSlabBlocks = 64
)

// critLog holds the recorded argmax decisions, one critNode per event
// in per-rank record order. The replay engines know every rank's event
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

// at looks up the recorded argmax decision for a subevent.
func (l critLog) at(ref NodeRef) critStep {
	var n *critNode
	if l.blocks != nil {
		n = &l.blocks[ref.Rank][ref.Event>>critBlockShift][ref.Event&(critBlockLen-1)]
	} else {
		n = &l.flat[ref.Rank][ref.Event]
	}
	if ref.End {
		return n.end
	}
	return n.start
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
		st := crit.at(cur)
		if !st.hasPred {
			rev = append(rev, PathStep{Node: cur, Kind: st.kind, Delta: 0, Delay: st.d})
			break
		}
		delta := st.d - st.predD
		rev = append(rev, PathStep{Node: cur, Kind: st.kind, Delta: delta, Delay: st.d})
		cp.KindBlame[st.kind] += delta
		cp.RankBlame[cur.Rank] += delta
		cur = st.pred
	}
	cp.Steps = make([]PathStep, len(rev))
	for i, s := range rev {
		cp.Steps[len(rev)-1-i] = s
	}
	return cp
}
