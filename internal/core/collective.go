package core

import (
	"fmt"

	"mpgraph/internal/trace"
)

// completeCollective resolves a collective record. All participants
// stall until the last one arrives; the last arrival computes every
// participant's outbound contribution under the configured collective
// model and reschedules the others.
func (a *analyzer) completeCollective(rs *rankState, rec trace.Record) (float64, Attribution, bool, error) {
	key := collKey{comm: rec.Comm, seq: rec.Seq}
	cs := rs.myColl // a stalled participant resumes on its own instance
	if cs == nil {
		cs = a.colls[key]
	}
	if cs == nil {
		cs = &collState{
			kind:   rec.Kind,
			bytes:  rec.Bytes,
			expect: int(rec.CommSize),
			root:   rec.Root,
		}
		a.colls[key] = cs
		a.windowGrow()
	}
	if !rs.posted {
		if cs.kind != rec.Kind || cs.root != rec.Root {
			return 0, Attribution{}, false, fmt.Errorf("core: rank %d: collective mismatch at comm %d seq %d: %s/root=%d vs %s/root=%d",
				rs.rank, rec.Comm, rec.Seq, rec.Kind, rec.Root, cs.kind, cs.root)
		}
		if len(cs.parts) >= cs.expect {
			return 0, Attribution{}, false, fmt.Errorf("core: comm %d seq %d has more participants than its size %d",
				rec.Comm, rec.Seq, cs.expect)
		}
		rs.collPart = len(cs.parts)
		cs.parts = append(cs.parts, collParticipant{
			rank:      rs.rank,
			startD:    rs.startD,
			startAttr: rs.startAttr,
			startRef:  NodeRef{Rank: rs.rank, Event: rs.eventIdx},
			pred:      a.holdFront(rs.rank),
		})
		rs.posted = true
		rs.myColl = cs
	}
	if len(cs.parts) < cs.expect {
		return 0, Attribution{}, false, nil
	}
	if !cs.resolved {
		a.resolveCollective(cs)
		delete(a.colls, key)
		a.windowShrink()
		for i := range cs.parts {
			if cs.parts[i].rank != rs.rank {
				a.enqueue(cs.parts[i].rank)
			}
		}
	}
	p := &cs.parts[rs.collPart]
	var d float64
	var attr Attribution
	d, attr, rs.ivWait, rs.ivState = collEndKernel(a.model.Propagation, &a.res.Ranks[rs.rank], a.region(rs),
		rs.startD, rs.startAttr, rec.Duration(), p.outD, p.outAttr)
	return d, attr, true, nil
}

// resolveCollective computes each participant's outbound delay
// contribution under the configured model. Participants are processed
// in ascending world-rank order so sampling is deterministic.
func (a *analyzer) resolveCollective(cs *collState) {
	cs.resolved = true
	a.cnt.colls++
	a.cnt.collEdges += int64(2*len(cs.parts) - 1) // Fig. 4 hub in/out edges
	// Sort participants by rank for deterministic sampling; arrival
	// order depends on scheduling.
	ordered := a.collOrder[:0]
	for i := range cs.parts {
		ordered = append(ordered, &cs.parts[i])
	}
	a.collOrder = ordered
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1].rank > ordered[j].rank; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	if a.rec != nil {
		a.rec.onCollResolve(cs, ordered)
	}
	p := len(ordered)
	if cap(a.collIn) < p {
		a.collIn = make([]collIn, p)
		a.collOutD = make([]float64, p)
		a.collOutAttr = make([]Attribution, p)
		a.collOutPred = make([]int32, p)
	}
	in, outD, outAttr, outPred := a.collIn[:p], a.collOutD[:p], a.collOutAttr[:p], a.collOutPred[:p]
	for i, part := range ordered {
		in[i] = collIn{rank: part.rank, startD: part.startD, startAttr: part.startAttr}
	}
	resolveCollKernel(a.smp, cs.kind, cs.bytes, cs.root, in, &a.csc, outD, outAttr, outPred)
	for i, part := range ordered {
		part.outD = outD[i]
		part.outAttr = outAttr[i]
		part.outWin = ordered[outPred[i]]
	}
}

// CollectiveRounds is the number of rounds the compact (Fig. 4) model
// charges a p-participant collective: ceil(log2 p), minimum 1, for the
// symmetric collectives and a single round for the rooted ones (the
// paper's Reduce simplification). Exposed for the differential
// verification bounds, which must account for the DES baseline
// charging ceil(log2 p) rounds to every collective kind.
func CollectiveRounds(kind trace.Kind, p int) int {
	if kind.IsRooted() {
		return 1
	}
	return ceilLog2(p)
}

// CollectiveRoundBytes is the exported form of roundBytes: the payload
// the model attributes to one round of a collective.
func CollectiveRoundBytes(kind trace.Kind, bytes int64, round, p int) int64 {
	return roundBytes(kind, bytes, round, p)
}

// roundBytes is the payload attributed to one round of a collective.
//
//mpg:hotpath
func roundBytes(kind trace.Kind, bytes int64, round, p int) int64 {
	switch kind {
	case trace.KindBarrier, trace.KindCommSplit:
		return 0
	case trace.KindAllgather:
		return bytes << uint(round)
	case trace.KindAlltoall:
		r := ceilLog2(p)
		return bytes * int64(p) / int64(r)
	default:
		return bytes
	}
}

// ceilLog2 returns ceil(log2(p)), minimum 1.
//
//mpg:hotpath
func ceilLog2(p int) int {
	r := 0
	for (1 << uint(r)) < p {
		r++
	}
	if r == 0 {
		r = 1
	}
	return r
}
