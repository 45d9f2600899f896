package core

import (
	"sync"

	"mpgraph/internal/trace"
)

// Compile-once, replay-many.
//
// Matching is sample-invariant (§4.1): which send pairs with which
// receive, which events form a collective, and the order in which the
// analyzer resolves them depend only on the trace's execution order
// and Options.Burst — never on sampled perturbation values (samples
// feed delays; delays never feed control flow). One zero-model
// streaming pass can therefore record the analyzer's entire execution
// schedule as a flat instruction tape; replaying the tape under any
// perturbation model performs exactly the sample draws and max()
// merges Analyze would, in the same order, with zero re-parsing and
// zero re-matching.

// opCode enumerates compiled-program instructions.
type opCode uint8

const (
	// opBegin is a record's start subevent: compute-gap noise draw,
	// order clamp, crit-path start step.
	opBegin opCode = iota
	// opEndLocal ends an Init/Finalize record: one osNoise draw folded
	// by combineLocalKernel.
	opEndLocal
	// opEndMarker ends a Marker record: no draw, end = start.
	opEndMarker
	// opEndImmediate ends an Isend/Irecv record: no draw, end = start
	// (Eq. 2 immediate return).
	opEndImmediate
	// opEndSend ends a blocking Send or a wait on an Isend; arg is the
	// transfer index.
	opEndSend
	// opEndRecv ends a blocking Recv or a wait on an Irecv; arg is the
	// transfer index.
	opEndRecv
	// opEndColl ends a collective record; arg is the global
	// participant index.
	opEndColl
	// opMatch resolves a point-to-point match (four sample draws);
	// arg is the transfer index.
	opMatch
	// opCollResolve resolves a complete collective (per-participant
	// draws in ascending-rank order); arg is the collective index.
	opCollResolve
)

// op is one instruction of the compiled program. Ops appear in the
// exact order the streaming analyzer executed them, which fixes the
// global RNG draw schedule, the Welford accumulation order, and the
// Trajectory emission order.
type op struct {
	code    opCode
	kind    uint8 // trace.Kind of the record (end ops; Trajectory)
	started bool  // begin: the rank had a predecessor event
	rank    int32
	region  int32 // dense region index (end ops)
	arg     int32 // transfer/collective/participant index (see opCode)
	event   int64 // rank-local record index
	aux     int64 // begin: compute gap; end ops: traced duration
	origEnd int64 // end ops: traced end time (Trajectory)
}

// compiledMsg is the structural half of one matched point-to-point
// transfer; the value half is an xfer slot in the replay state.
type compiledMsg struct {
	sendRank, recvRank   int32
	sendEvent, recvEvent int64
	bytes                int64
}

// compiledColl is one collective instance; its participants occupy
// parts[partOff : partOff+partN] in ascending world-rank order (the
// order the resolution kernels draw samples in).
type compiledColl struct {
	kind    trace.Kind
	bytes   int64
	root    int32
	partOff int32
	partN   int32
}

// compiledCollPart is one rank's participation in a collective.
type compiledCollPart struct {
	coll  int32
	rank  int32
	event int64
	dur   int64
}

// Compiled is an immutable, flat graph program: the structural half of
// an analysis (subevent layout, matched transfers, collective groups,
// the execution schedule) captured once, over which any number of
// perturbation models can be replayed concurrently via
// ReplayCompiled. All exported state is read-only after Compile; the
// internal buffer pool makes concurrent replays allocation-light.
type Compiled struct {
	nranks int
	// evBase is the CSR row index of the flat per-event arrays:
	// rank r's events occupy [evBase[r], evBase[r+1]).
	evBase []int64
	ops    []op
	msgs   []compiledMsg
	colls  []compiledColl
	parts  []compiledCollPart
	// maxParts is the largest collective's participant count, sizing
	// the replay scratch.
	maxParts int

	// regionKeys maps dense region indices (op.region) back to keys,
	// in first-use order.
	regionKeys []RegionKey

	// Structural result fields, identical across all replays.
	events     int64
	rankEvents []int64
	origEnd    []int64
	highWater  int
	warnings   []string // sorted; value-independent caveats (§4.3)

	// Structure-only engine counters for the metrics flush.
	nLocalEdges, nMsgEdges, nCollEdges int64
	nMatches, nColls                   int64

	pool sync.Pool // of *replayState
}

// NRanks returns the world size of the compiled trace.
func (c *Compiled) NRanks() int { return c.nranks }

// Events returns the total record count across ranks.
func (c *Compiled) Events() int64 { return c.events }

// Messages returns the number of matched point-to-point transfers.
func (c *Compiled) Messages() int { return len(c.msgs) }

// Collectives returns the number of collective instances.
func (c *Compiled) Collectives() int { return len(c.colls) }

// compileRecorder observes the streaming analyzer from inside
// (builder.go/collective.go hooks) and assembles the tape. It never
// alters control flow; the compile pass runs a zero model, so no
// sample is drawn and no clamp fires while recording.
//
// Transfers and collectives carry their tape index (tapeIdx), and each
// rank caches its region's dense index (rankState.recRegion), so only
// a region change consults regionIdx.
type compileRecorder struct {
	ops        []op
	msgs       []compiledMsg
	colls      []compiledColl
	parts      []compiledCollPart
	maxParts   int
	regionIdx  map[RegionKey]int32
	regionKeys []RegionKey
}

func newCompileRecorder() *compileRecorder {
	return &compileRecorder{regionIdx: map[RegionKey]int32{}}
}

func (r *compileRecorder) regionIndex(key RegionKey) int32 {
	if idx, ok := r.regionIdx[key]; ok {
		return idx
	}
	idx := int32(len(r.regionKeys))
	r.regionIdx[key] = idx
	r.regionKeys = append(r.regionKeys, key)
	return idx
}

func (r *compileRecorder) onBegin(rs *rankState, gap int64) {
	r.ops = append(r.ops, op{
		code:    opBegin,
		started: rs.started,
		rank:    int32(rs.rank),
		event:   rs.eventIdx,
		aux:     gap,
	})
}

func (r *compileRecorder) onMatch(m *msgState) {
	idx := int32(len(r.msgs))
	m.tapeIdx = idx
	r.msgs = append(r.msgs, compiledMsg{
		sendRank:  int32(m.sendStartRef.Rank),
		sendEvent: m.sendStartRef.Event,
		recvRank:  int32(m.recvStartRef.Rank),
		recvEvent: m.recvStartRef.Event,
		bytes:     m.bytes,
	})
	r.ops = append(r.ops, op{code: opMatch, arg: idx})
}

func (r *compileRecorder) onCollResolve(cs *collState, ordered []*collParticipant) {
	idx := int32(len(r.colls))
	cs.tapeIdx = idx
	off := int32(len(r.parts))
	for _, p := range ordered {
		r.parts = append(r.parts, compiledCollPart{
			coll:  idx,
			rank:  int32(p.rank),
			event: p.startRef.Event,
			dur:   p.dur,
		})
	}
	if len(ordered) > r.maxParts {
		r.maxParts = len(ordered)
	}
	r.colls = append(r.colls, compiledColl{
		kind:    cs.kind,
		bytes:   cs.bytes,
		root:    cs.root,
		partOff: off,
		partN:   int32(len(ordered)),
	})
	r.ops = append(r.ops, op{code: opCollResolve, arg: idx})
}

func (r *compileRecorder) onEnd(rs *rankState, rec trace.Record) {
	if rs.recRegion < 0 {
		rs.recRegion = r.regionIndex(RegionKey{Rank: rs.rank, Region: rs.region})
	}
	o := op{
		kind:    uint8(rec.Kind),
		rank:    int32(rs.rank),
		region:  rs.recRegion,
		event:   rs.eventIdx,
		aux:     rec.Duration(),
		origEnd: rec.End,
	}
	switch {
	case rec.Kind == trace.KindMarker:
		o.code = opEndMarker
	case rec.Kind == trace.KindInit || rec.Kind == trace.KindFinalize:
		o.code = opEndLocal
	case rec.Kind == trace.KindSend:
		o.code, o.arg = opEndSend, rs.myMsg.tapeIdx
	case rec.Kind == trace.KindRecv:
		o.code, o.arg = opEndRecv, rs.myMsg.tapeIdx
	case rec.Kind == trace.KindIsend || rec.Kind == trace.KindIrecv:
		o.code = opEndImmediate
	case rec.Kind.IsCompletion():
		ref := rs.req(rec.Req)
		if ref.isSend {
			o.code = opEndSend
		} else {
			o.code = opEndRecv
		}
		o.arg = ref.msg.tapeIdx
	case rec.Kind.IsCollective():
		o.code = opEndColl
		cc := r.colls[rs.myColl.tapeIdx]
		for j := int32(0); j < cc.partN; j++ {
			if r.parts[cc.partOff+j].rank == int32(rs.rank) {
				o.arg = cc.partOff + j
				break
			}
		}
	}
	r.ops = append(r.ops, o)
}

// Compile runs the streaming matcher once over the trace set and
// returns the immutable compiled program. Like any other consumer, it
// exhausts the set. The schedule (and hence the tape) honors
// opts.Burst and opts.MaxWindow; caller sinks (Graph, Trajectory,
// RecordCritPath) are meaningless during the structural pass and are
// ignored — pass them to ReplayCompiled instead.
func Compile(set *trace.Set, opts Options) (*Compiled, error) {
	defer opts.Metrics.Timer("core_compile").Start()()
	defer opts.Metrics.SpanStart("compile")()
	opts.Graph = nil
	opts.Trajectory = nil
	opts.Interval = nil
	opts.RecordCritPath = false
	a, err := newAnalyzer(set, &Model{}, opts)
	if err != nil {
		return nil, err
	}
	rec := newCompileRecorder()
	a.rec = rec
	res, err := a.run()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		nranks:      res.NRanks,
		evBase:      make([]int64, res.NRanks+1),
		ops:         rec.ops,
		msgs:        rec.msgs,
		colls:       rec.colls,
		parts:       rec.parts,
		maxParts:    rec.maxParts,
		regionKeys:  rec.regionKeys,
		events:      res.Events,
		rankEvents:  make([]int64, res.NRanks),
		origEnd:     make([]int64, res.NRanks),
		highWater:   res.WindowHighWater,
		warnings:    res.Warnings,
		nLocalEdges: a.nLocalEdges,
		nMsgEdges:   a.nMsgEdges,
		nCollEdges:  a.nCollEdges,
		nMatches:    a.nMatches,
		nColls:      a.nColls,
	}
	for r := 0; r < res.NRanks; r++ {
		c.rankEvents[r] = res.Ranks[r].Events
		c.origEnd[r] = res.Ranks[r].OrigEnd
		c.evBase[r+1] = c.evBase[r] + res.Ranks[r].Events
	}
	if m := opts.Metrics; m != nil {
		m.Counter("core_compiles_total").Inc()
		m.Gauge("core_compiled_ops").SetMax(float64(len(c.ops)))
	}
	return c, nil
}
