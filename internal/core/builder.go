package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"mpgraph/internal/trace"
)

// Analyze builds the message-passing graph from the trace set and
// propagates the model's perturbations through it in a single
// streaming pass, returning the per-rank delay outcome.
func Analyze(set *trace.Set, model *Model, opts Options) (*Result, error) {
	defer opts.Metrics.Timer("core_analyze").Start()()
	defer opts.Metrics.SpanStart("analyze")()
	a, err := newAnalyzer(set, model, opts)
	if err != nil {
		return nil, err
	}
	return a.run()
}

// --- matching state ----------------------------------------------------

// msgKey identifies a point-to-point matching queue (world ranks).
type msgKey struct {
	comm     int32
	src, dst int32
	tag      int32
}

// msgState tracks one point-to-point transfer through matching and
// delay resolution. The embedded xfer carries the value half (post
// delays, sampled deltas, completion contributions — see compute.go);
// msgState adds the structural half the streaming matcher needs.
type msgState struct {
	xfer

	bytes    int64
	sendSeen bool
	recvSeen bool
	matched  bool

	// Ranks stalled on this transfer (blocking sender/receiver or
	// waiters), to be rescheduled when the match resolves. waiters
	// starts out on waitBuf, which holds the usual one or two.
	waiters []int
	waitBuf [2]int

	next *msgState // the next unmatched post in its matching queue

	// Graph-sink and critical-path bookkeeping.
	sendStartRef NodeRef
	recvStartRef NodeRef
	sendDoneRef  NodeRef
	recvDoneRef  NodeRef
	sendDoneSet  bool
	recvDoneSet  bool
	dataEmitted  bool
	ackEmitted   bool

	tapeIdx int32 // transfer index on the compile tape, once matched
}

// msgQueue is one matching queue's unmatched posts in FIFO order,
// linked through msgState.next.
type msgQueue struct {
	head, tail *msgState
}

// msgSlabLen is the number of msgStates allocated together.
const msgSlabLen = 64

// collKey identifies one collective instance.
type collKey struct {
	comm int32
	seq  int64
}

// collParticipant is one rank's arrival at a collective.
type collParticipant struct {
	rank      int
	startD    float64
	startAttr Attribution
	startRef  NodeRef
	endRef    NodeRef
	dur       int64
	outD      float64     // resolved completion contribution
	outAttr   Attribution // attribution of outD from this rank's view
	// outPred anchors outD for critical-path extraction: the start
	// subevent of the participant whose path won the collective's max
	// (the hub argmax in approx mode, the adopt-chain origin in
	// explicit mode) and that participant's inbound delay.
	outPredRef NodeRef
	outPredD   float64
}

// collState gathers a collective's participants until all arrive.
type collState struct {
	kind     trace.Kind
	bytes    int64
	expect   int
	root     int32
	parts    []collParticipant
	resolved bool
	lMax     float64 // the propagated max (approx mode), for labels
	tapeIdx  int32   // collective index on the compile tape, once resolved
}

// --- per-rank state -----------------------------------------------------

type phase uint8

const (
	phaseFetch    phase = iota // need next record from the reader
	phaseComplete              // record posted; completing (may stall)
	phaseEOF
)

type rankState struct {
	rank   int
	reader trace.Reader

	eventIdx int64
	started  bool
	prevEnd  int64   // traced local end of the previous record
	prevD    float64 // D at the previous record's end

	ph        phase
	cur       trace.Record
	startD    float64     // D at cur's start subevent
	startAttr Attribution // attribution of startD
	prevAttr  Attribution // attribution at the previous record's end
	posted    bool        // cur's side effects (queue postings) done
	myMsg     *msgState
	myColl    *collState

	region int32
	// reg caches the stats bucket of (rank, region) and recRegion the
	// compile recorder's dense index for it (-1: not yet resolved).
	// A marker that changes the region drops both.
	reg       *RegionStats
	recRegion int32

	// Pending critical-path steps for the current record (valid only
	// while crit recording is enabled).
	critStart critStep
	critEnd   critStep

	// Pending interval detail for the current record (valid only while
	// Options.Interval is set): the wait charged by the completion merge
	// and, for receive completions, the matched sender subevent.
	ivWait      float64
	ivState     WaitState
	ivPeerRank  int
	ivPeerEvent int64

	// reqTab holds requests by value while their ids arrive
	// consecutively, as the mpi runtime issues them: reqTab[i] is
	// request i+1. Any other id lives in reqs (nil until needed).
	reqTab []reqRef
	reqs   map[uint64]*reqRef

	sendReqs    int64
	waitedSends int64
	unwaited    int
}

// reqRef links a request id to its transfer and side.
type reqRef struct {
	msg    *msgState
	isSend bool
	waited bool
}

// req returns the posted request with the given id, or nil.
func (rs *rankState) req(id uint64) *reqRef {
	if id-1 < uint64(len(rs.reqTab)) { // id 0 wraps past the table
		return &rs.reqTab[id-1]
	}
	return rs.reqs[id]
}

// addReq registers a posted request, replacing an earlier one with the
// same id.
func (rs *rankState) addReq(id uint64, ref reqRef) {
	switch {
	case id-1 < uint64(len(rs.reqTab)):
		rs.reqTab[id-1] = ref
	case id == uint64(len(rs.reqTab))+1:
		rs.reqTab = append(rs.reqTab, ref)
		delete(rs.reqs, id) // the table now shadows any sparse entry
	default:
		if rs.reqs == nil {
			rs.reqs = map[uint64]*reqRef{}
		}
		p := new(reqRef) // a fresh copy: &ref would move every call's ref to the heap
		*p = ref
		rs.reqs[id] = p
	}
}

// --- analyzer -----------------------------------------------------------

type analyzer struct {
	set   *trace.Set
	model *Model
	opts  Options
	smp   *sampler
	res   *Result

	ranks   []*rankState
	queues  map[msgKey]msgQueue // unmatched posts, FIFO per key
	colls   map[collKey]*collState
	msgSlab []msgState // unused msgStates, handed out by newMsg

	pendingOps int

	runnable []int
	queued   []bool

	// crit holds the recorded argmax decisions in its block log; nil
	// unless Options.RecordCritPath.
	crit *critLog

	// rec, when non-nil, records the execution schedule as a compiled
	// instruction tape (see compile.go). The recorder observes; it
	// never alters control flow or sampling.
	rec *compileRecorder

	// Reusable collective-resolution buffers (see compute.go kernels).
	csc         collScratch
	collIn      []collIn
	collOutD    []float64
	collOutAttr []Attribution
	collOutPred []int32
	collOrder   []*collParticipant

	// Engine counters, flushed to Options.Metrics at the end of the
	// run. Plain ints: the analyzer is single-goroutine.
	nLocalEdges, nMsgEdges, nCollEdges int64
	nMatches, nColls                   int64
}

func newAnalyzer(set *trace.Set, model *Model, opts Options) (*analyzer, error) {
	if model == nil {
		model = &Model{}
	}
	if opts.Burst <= 0 {
		opts.Burst = 64
	}
	n := set.NRanks()
	a := &analyzer{
		set:    set,
		model:  model,
		opts:   opts,
		smp:    newSampler(model, n),
		res:    &Result{NRanks: n, Ranks: make([]RankResult, n), Regions: map[RegionKey]*RegionStats{}},
		ranks:  make([]*rankState, n),
		queues: map[msgKey]msgQueue{},
		colls:  map[collKey]*collState{},
		queued: make([]bool, n),
	}
	if opts.RecordCritPath {
		a.crit = newCritBlocks(n)
	}
	for r := 0; r < n; r++ {
		a.ranks[r] = &rankState{
			rank:      r,
			reader:    set.Rank(r),
			region:    -1,
			recRegion: -1,
		}
		a.enqueue(r)
	}
	return a, nil
}

func (a *analyzer) enqueue(rank int) {
	if !a.queued[rank] {
		a.queued[rank] = true
		a.runnable = append(a.runnable, rank)
	}
}

func (a *analyzer) run() (*Result, error) {
	for len(a.runnable) > 0 {
		rank := a.runnable[0]
		a.runnable = a.runnable[1:]
		a.queued[rank] = false
		if err := a.processBurst(a.ranks[rank]); err != nil {
			return nil, err
		}
	}
	// Every rank must have drained cleanly.
	var stuck []string
	for _, rs := range a.ranks {
		if rs.ph != phaseEOF {
			stuck = append(stuck, fmt.Sprintf("rank %d: %s", rs.rank, stallReason(rs)))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return nil, fmt.Errorf("core: trace is not self-consistent; unresolved events: %v", stuck)
	}
	for rank := range a.res.Ranks {
		if a.res.Ranks[rank].Events == 0 {
			return nil, fmt.Errorf("core: rank %d trace is empty — trace sets are single-use; build a fresh Set (or Reset an in-memory one) before re-analyzing", rank)
		}
	}
	if a.pendingOps > 0 {
		a.res.warnf("analysis ended with %d unmatched posted operations (unreceived sends or unsent receives)", a.pendingOps)
	}
	orderViolationWarning(a.res)
	a.res.finalize()
	if a.crit != nil {
		a.res.CritPath = buildCritPath(a.res, *a.crit)
	}
	if m := a.opts.Metrics; m != nil {
		m.Counter("core_analyses_total").Inc()
		m.Counter("core_events_total").Add(a.res.Events)
		m.Counter("core_edges_local_total").Add(a.nLocalEdges)
		m.Counter("core_edges_message_total").Add(a.nMsgEdges)
		m.Counter("core_edges_collective_total").Add(a.nCollEdges)
		m.Counter("core_matches_total").Add(a.nMatches)
		m.Counter("core_collectives_total").Add(a.nColls)
		m.Counter("core_samples_noise_total").Add(a.smp.nNoise)
		m.Counter("core_samples_message_total").Add(a.smp.nMsg)
		m.Gauge("core_window_high_water").SetMax(float64(a.res.WindowHighWater))
	}
	return a.res, nil
}

// stallReason names what a stalled rank waits on, for the
// unresolved-events error. It is built from the rank's current record
// when the error is, so a collective reports its arrivals at that time.
func stallReason(rs *rankState) string {
	rec := rs.cur
	switch {
	case rec.Kind == trace.KindSend || rec.Kind == trace.KindRecv:
		return fmt.Sprintf("%s peer=%d tag=%d", rec.Kind, rec.Peer, rec.Tag)
	case rec.Kind.IsCompletion():
		return fmt.Sprintf("%s req=%d", rec.Kind, rec.Req)
	case rec.Kind.IsCollective() && rs.myColl != nil:
		return fmt.Sprintf("%s comm=%d seq=%d (%d/%d arrived)",
			rec.Kind, rec.Comm, rec.Seq, len(rs.myColl.parts), rs.myColl.expect)
	}
	return ""
}

// processBurst advances one rank by up to Burst records, stopping on
// stall or EOF.
func (a *analyzer) processBurst(rs *rankState) error {
	for i := 0; i < a.opts.Burst; i++ {
		switch rs.ph {
		case phaseEOF:
			return nil
		case phaseFetch:
			rec, err := rs.reader.Next()
			if errors.Is(err, io.EOF) {
				a.finishRank(rs)
				return nil
			}
			if err != nil {
				return fmt.Errorf("core: rank %d: %w", rs.rank, err)
			}
			if err := a.beginRecord(rs, rec); err != nil {
				return err
			}
		case phaseComplete:
			done, err := a.completeRecord(rs)
			if err != nil {
				return err
			}
			if !done {
				return nil // stalled; another rank will re-enqueue us
			}
		}
		if a.opts.MaxWindow > 0 && a.pendingOps > a.opts.MaxWindow {
			return fmt.Errorf("core: streaming window exceeded %d pending operations (high water %d); raise Options.MaxWindow or check the trace for unreceived sends",
				a.opts.MaxWindow, a.res.WindowHighWater)
		}
	}
	a.enqueue(rs.rank) // budget exhausted, come back later
	return nil
}

// beginRecord handles the record's start subevent: the compute-gap
// local edge and the queue side effects that must happen exactly once.
func (a *analyzer) beginRecord(rs *rankState, rec trace.Record) error {
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("core: rank %d record %d: %w", rs.rank, rs.eventIdx, err)
	}
	if rs.started && rec.Begin < rs.prevEnd {
		return fmt.Errorf("core: rank %d: record %d overlaps its predecessor", rs.rank, rs.eventIdx)
	}
	rs.cur = rec
	rs.posted = false
	rs.myMsg = nil
	rs.myColl = nil
	rs.ivWait = 0
	rs.ivState = WaitNone
	rs.ivPeerRank = -1
	rs.ivPeerEvent = 0
	rs.ph = phaseComplete

	gap := int64(0)
	if rs.started {
		gap = rec.Begin - rs.prevEnd
	}
	if a.rec != nil {
		a.rec.onBegin(rs, gap)
	}
	delta := a.smp.computeNoise(rs.rank, gap)
	rs.startD = rs.prevD + delta
	rs.startAttr = rs.prevAttr.addOwn(delta)
	a.res.Ranks[rs.rank].InjectedLocal += delta
	if a.model.AllowNegative && rs.started {
		// Order preservation (§4.3): an event may not begin before its
		// predecessor's perturbed end.
		if floor := rs.prevD - float64(gap); rs.startD < floor {
			rs.startD = floor
			a.res.OrderViolations++
		}
	}

	if rs.started {
		a.nLocalEdges++ // compute-gap edge
	}
	if a.crit != nil {
		rs.critStart = critStep{d: rs.startD, kind: EdgeLocal}
		if rs.started {
			rs.critStart.pred = NodeRef{Rank: rs.rank, Event: rs.eventIdx - 1, End: true}
			rs.critStart.predD = rs.prevD
			rs.critStart.hasPred = true
		}
	}
	if sink := a.opts.Graph; sink != nil {
		ref := NodeRef{Rank: rs.rank, Event: rs.eventIdx}
		sink.AddNode(ref, rec.Begin, rec)
		if rs.started {
			prev := NodeRef{Rank: rs.rank, Event: rs.eventIdx - 1, End: true}
			sink.AddEdge(prev, ref, EdgeLocal, gap, "compute")
		}
	}
	return nil
}

// completeRecord attempts to resolve the current record's end
// subevent. It returns false when the record must wait for remote
// counterparts (the rank stalls).
func (a *analyzer) completeRecord(rs *rankState) (bool, error) {
	rec := rs.cur
	var endD float64
	var endAttr Attribution
	if a.crit != nil {
		// Default argmax: the event's own start subevent (the local
		// internal edge). Remote-win completion paths overwrite this.
		rs.critEnd = critStep{
			pred:    NodeRef{Rank: rs.rank, Event: rs.eventIdx},
			predD:   rs.startD,
			kind:    EdgeLocal,
			hasPred: true,
		}
	}
	switch {
	case rec.Kind == trace.KindMarker:
		if rec.Tag != rs.region {
			rs.region = rec.Tag
			rs.reg = nil
			rs.recRegion = -1
		}
		endD = rs.startD
		endAttr = rs.startAttr

	case rec.Kind == trace.KindInit || rec.Kind == trace.KindFinalize:
		delta := a.smp.osNoise(rs.rank)
		a.res.Ranks[rs.rank].InjectedLocal += delta
		endD, endAttr = a.combineLocal(rs, delta, rec.Duration())

	case rec.Kind == trace.KindSend || rec.Kind == trace.KindRecv:
		d, attr, ok, err := a.completeBlockingP2P(rs, rec)
		if err != nil || !ok {
			return ok, err
		}
		endD, endAttr = d, attr

	case rec.Kind == trace.KindIsend || rec.Kind == trace.KindIrecv:
		endD = rs.startD // immediate return: end times unmodified (Eq. 2)
		endAttr = rs.startAttr
		a.postNonblocking(rs, rec)

	case rec.Kind.IsCompletion():
		d, attr, ok, err := a.completeWait(rs, rec)
		if err != nil || !ok {
			return ok, err
		}
		endD, endAttr = d, attr

	case rec.Kind.IsCollective():
		d, attr, ok, err := a.completeCollective(rs, rec)
		if err != nil || !ok {
			return ok, err
		}
		endD, endAttr = d, attr

	default:
		return false, fmt.Errorf("core: rank %d: unsupported record kind %s", rs.rank, rec.Kind)
	}

	a.finishRecord(rs, rec, endD, endAttr)
	return true, nil
}

// finishRecord commits the resolved end subevent and advances the
// rank's frontier.
func (a *analyzer) finishRecord(rs *rankState, rec trace.Record, endD float64, endAttr Attribution) {
	if a.rec != nil {
		a.rec.onEnd(rs, rec)
	}
	if a.model.AllowNegative {
		// Order preservation (§4.3): an event may not end before it
		// begins under negative perturbations.
		if floor := rs.startD - float64(rec.Duration()); endD < floor {
			endD = floor
			a.res.OrderViolations++
		}
	}
	a.nLocalEdges++ // the event-internal start→end edge
	if a.crit != nil {
		rs.critEnd.d = endD
		a.crit.add(rs.rank, rs.eventIdx, critNode{start: rs.critStart, end: rs.critEnd})
	}
	if sink := a.opts.Graph; sink != nil {
		ref := NodeRef{Rank: rs.rank, Event: rs.eventIdx, End: true}
		sink.AddNode(ref, rec.End, rec)
		sink.AddEdge(NodeRef{Rank: rs.rank, Event: rs.eventIdx}, ref,
			EdgeLocal, rec.Duration(), rec.Kind.String())
	}
	rs.started = true
	rs.prevEnd = rec.End
	rs.prevD = endD
	rs.prevAttr = endAttr
	rs.eventIdx++
	rs.ph = phaseFetch

	rr := &a.res.Ranks[rs.rank]
	rr.Events++
	a.res.Events++
	a.res.DelayStats.Add(endD)
	if a.opts.Trajectory != nil {
		a.opts.Trajectory(TrajectoryPoint{
			Rank:    rs.rank,
			Event:   rs.eventIdx - 1,
			Kind:    uint8(rec.Kind),
			OrigEnd: rec.End,
			Delay:   endD,
			Region:  rs.region,
		})
	}
	if a.opts.Interval != nil {
		a.opts.Interval(IntervalPoint{
			Rank:       rs.rank,
			Event:      rs.eventIdx - 1,
			Kind:       uint8(rec.Kind),
			OrigBegin:  rec.Begin,
			OrigEnd:    rec.End,
			StartDelay: rs.startD,
			EndDelay:   endD,
			Wait:       rs.ivWait,
			State:      rs.ivState,
			PeerRank:   rs.ivPeerRank,
			PeerEvent:  rs.ivPeerEvent,
		})
	}

	reg := a.region(rs)
	if !reg.firstSeen {
		reg.firstSeen = true
		reg.firstDelay = endD
	}
	reg.Events++
	reg.DelayGrowth = endD - reg.firstDelay
}

// finishRank handles EOF on one rank.
func (a *analyzer) finishRank(rs *rankState) {
	rs.ph = phaseEOF
	rr := &a.res.Ranks[rs.rank]
	rr.OrigEnd = rs.prevEnd
	rr.FinalDelay = rs.prevD
	rr.Attr = rs.prevAttr
	if rs.sendReqs > 0 && rs.waitedSends == 0 {
		// The paper's Section 4.3 warning: only asynchronous sends with
		// no completion check — perturbation correctness cannot be
		// guaranteed for arbitrary perturbations.
		a.res.warnf("rank %d issues nonblocking sends but never waits on any; perturbed ordering cannot be guaranteed (paper §4.3)", rs.rank)
	}
	if rs.unwaited > 0 {
		a.res.warnf("rank %d finalized with %d outstanding nonblocking requests", rs.rank, rs.unwaited)
	}
}

// --- combination rules --------------------------------------------------

// combineLocal folds a local-edge delta into the running delay
// (compute.go kernel; shared with the compiled replayer).
func (a *analyzer) combineLocal(rs *rankState, delta float64, w int64) (float64, Attribution) {
	return combineLocalKernel(a.model.Propagation, rs.startD, rs.startAttr, delta, w)
}

// region returns (creating if needed) the stats bucket of the rank's
// current marker region, through the rank's cache.
func (a *analyzer) region(rs *rankState) *RegionStats {
	if rs.reg == nil {
		key := RegionKey{Rank: rs.rank, Region: rs.region}
		rs.reg = a.res.Regions[key]
		if rs.reg == nil {
			rs.reg = &RegionStats{}
			a.res.Regions[key] = rs.reg
		}
	}
	return rs.reg
}

// merge folds one remote contribution into the local one, recording
// absorbed/propagated statistics for the rank and its current region.
func (a *analyzer) merge(rs *rankState, local, remote float64) float64 {
	return mergeStats(&a.res.Ranks[rs.rank], a.region(rs), local, remote)
}

// --- point-to-point -----------------------------------------------------

// postP2P registers the record's post with the matching queues and
// resolves the transfer if the counterpart has already posted.
func (a *analyzer) postP2P(rs *rankState, rec trace.Record, isSend bool, startD float64) *msgState {
	var key msgKey
	if isSend {
		key = msgKey{comm: rec.Comm, src: int32(rs.rank), dst: rec.Peer, tag: rec.Tag}
	} else {
		key = msgKey{comm: rec.Comm, src: rec.Peer, dst: int32(rs.rank), tag: rec.Tag}
	}
	q := a.queues[key]
	var m *msgState
	// Find the first entry still missing our side (FIFO, non-overtaking).
	for cand := q.head; cand != nil; cand = cand.next {
		if isSend && !cand.sendSeen || !isSend && !cand.recvSeen {
			m = cand
			break
		}
	}
	if m == nil {
		m = a.newMsg()
		if q.tail == nil {
			q.head = m
		} else {
			q.tail.next = m
		}
		q.tail = m
		a.queues[key] = q
		a.windowGrow()
	}
	if isSend {
		m.sendSeen = true
		m.sendStartD = startD
		m.sendAttr = rs.startAttr
		m.bytes = rec.Bytes
		m.sendStartRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx}
	} else {
		m.recvSeen = true
		m.recvPostD = startD
		m.recvAttr = rs.startAttr
		m.recvStartRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx}
	}
	if m.sendSeen && m.recvSeen && !m.matched {
		a.resolveMatch(key, m, int(key.dst))
	}
	return m
}

// resolveMatch samples the transfer's deltas and computes the shared
// path contributions (paper Fig. 2 / Eq. 1 structure):
//
//	cData = D(send start) + δ_λ1 + δ_t(d)   — the data path
//	cRecv = max(cData, D(recv post))        — transfer completion
func (a *analyzer) resolveMatch(key msgKey, m *msgState, recvRank int) {
	m.dLat1 = a.smp.latency()
	m.dPerByte = a.smp.perByte(m.bytes)
	m.dLat2 = a.smp.latency()
	m.dOS2 = a.smp.osNoise(recvRank)
	m.resolveCompletion()
	m.matched = true
	a.nMatches++
	a.nMsgEdges += 2 // data + acknowledgment edges
	if a.rec != nil {
		a.rec.onMatch(m)
	}
	// Drop the matched entry from the front region of its queue.
	q := a.queues[key]
	var prev *msgState
	for cand := q.head; cand != nil; prev, cand = cand, cand.next {
		if cand == m {
			if prev == nil {
				q.head = m.next
			} else {
				prev.next = m.next
			}
			if q.tail == m {
				q.tail = prev
			}
			m.next = nil
			break
		}
	}
	if q.head == nil {
		delete(a.queues, key)
	} else {
		a.queues[key] = q
	}
	a.windowShrink()
	for _, w := range m.waiters {
		a.enqueue(w)
	}
	m.waiters = m.waiters[:0]
}

// newMsg hands out a zeroed msgState from the current slab.
func (a *analyzer) newMsg() *msgState {
	if len(a.msgSlab) == 0 {
		a.msgSlab = make([]msgState, msgSlabLen)
	}
	m := &a.msgSlab[0]
	a.msgSlab = a.msgSlab[1:]
	m.waiters = m.waitBuf[:0]
	return m
}

// completeBlockingP2P resolves a blocking Send or Recv end subevent.
func (a *analyzer) completeBlockingP2P(rs *rankState, rec trace.Record) (float64, Attribution, bool, error) {
	isSend := rec.Kind == trace.KindSend
	if !rs.posted {
		rs.myMsg = a.postP2P(rs, rec, isSend, rs.startD)
		rs.posted = true
	}
	m := rs.myMsg
	if !m.matched {
		m.waiters = append(m.waiters, rs.rank)
		return 0, Attribution{}, false, nil
	}
	var d float64
	var attr Attribution
	if isSend {
		d, attr = a.sendCompletion(rs, m, rec.Duration())
		a.sinkSendDone(rs, m)
	} else {
		d, attr = a.recvCompletion(rs, m, rec.Duration())
		a.sinkRecvDone(rs, m)
	}
	return d, attr, true, nil
}

// critRemoteMsg records the transfer completion as the argmax
// predecessor of the current record's end subevent: the sender's post
// when the data path dominated cRecv, the receiver's post otherwise.
// Either way the winning edge is a message edge.
func (a *analyzer) critRemoteMsg(rs *rankState, m *msgState) {
	if a.crit == nil {
		return
	}
	if m.cRecvFromData {
		rs.critEnd = critStep{pred: m.sendStartRef, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
	} else {
		rs.critEnd = critStep{pred: m.recvStartRef, predD: m.recvPostD, kind: EdgeMessage, hasPred: true}
	}
}

// sendCompletion applies Eq. 1's sender rule: the local path carries
// δ_os1, the remote path is the transfer completion plus the
// acknowledgment latency δ_λ2 (and, anchored, the receiver-side noise
// that Eq. 1's third term includes).
func (a *analyzer) sendCompletion(rs *rankState, m *msgState, w int64) (float64, Attribution) {
	dOS1 := a.smp.osNoise(rs.rank)
	a.res.Ranks[rs.rank].InjectedLocal += dOS1
	local, remote, localAttr, remoteAttr := sendCompletionKernel(
		a.model.Propagation, rs.startD, rs.startAttr, dOS1, w, &m.xfer)
	a.merge(rs, local, remote)
	// mergeStats adopts the remote path exactly when remote > local,
	// so the branch repeats its comparison instead of re-testing the
	// returned float for equality.
	if remote > local {
		rs.ivWait, rs.ivState = remote-local, WaitLateReceiver
		a.critRemoteMsg(rs, m)
		return remote, remoteAttr
	}
	return local, localAttr
}

// recvCompletion applies Eq. 1's receiver rule: the local path carries
// δ_os2, the remote path is the data arrival.
func (a *analyzer) recvCompletion(rs *rankState, m *msgState, w int64) (float64, Attribution) {
	a.res.Ranks[rs.rank].InjectedLocal += m.dOS2
	local, remote, localAttr, remoteAttr := recvCompletionKernel(
		a.model.Propagation, rs.startD, rs.startAttr, w, &m.xfer)
	a.merge(rs, local, remote)
	rs.ivPeerRank = m.sendStartRef.Rank
	rs.ivPeerEvent = m.sendStartRef.Event
	if remote > local {
		rs.ivWait, rs.ivState = remote-local, WaitLateSender
		if a.model.Propagation == PropagationAnchored {
			if a.crit != nil {
				// Anchored receive: the remote path is always the data
				// arrival (cData), never the receiver's own post.
				rs.critEnd = critStep{pred: m.sendStartRef, predD: m.sendStartD, kind: EdgeMessage, hasPred: true}
			}
		} else {
			a.critRemoteMsg(rs, m)
		}
		return remote, remoteAttr
	}
	return local, localAttr
}

// postNonblocking registers an Isend/Irecv post; the end subevent is
// unperturbed (immediate return).
func (a *analyzer) postNonblocking(rs *rankState, rec trace.Record) {
	isSend := rec.Kind == trace.KindIsend
	m := a.postP2P(rs, rec, isSend, rs.startD)
	rs.addReq(rec.Req, reqRef{msg: m, isSend: isSend})
	rs.unwaited++
	if isSend {
		rs.sendReqs++
	}
}

// completeWait resolves a Wait/Waitall record against its request.
func (a *analyzer) completeWait(rs *rankState, rec trace.Record) (float64, Attribution, bool, error) {
	ref := rs.req(rec.Req)
	if ref == nil {
		return 0, Attribution{}, false, fmt.Errorf("core: rank %d: wait on unknown request %d", rs.rank, rec.Req)
	}
	m := ref.msg
	if !m.matched {
		m.waiters = append(m.waiters, rs.rank)
		return 0, Attribution{}, false, nil
	}
	if !ref.waited {
		ref.waited = true
		rs.unwaited--
		if ref.isSend {
			rs.waitedSends++
		}
	}
	var d float64
	var attr Attribution
	if ref.isSend {
		d, attr = a.sendCompletion(rs, m, rec.Duration())
		a.sinkSendDone(rs, m)
	} else {
		d, attr = a.recvCompletion(rs, m, rec.Duration())
		a.sinkRecvDone(rs, m)
	}
	return d, attr, true, nil
}

// sinkSendDone / sinkRecvDone emit the message edges once the
// corresponding completion subevents are known. The data edge runs
// send-start → receive-completion-end; the acknowledgment edge runs
// receive-completion-end → send-completion-end (Fig. 2/3).
func (a *analyzer) sinkSendDone(rs *rankState, m *msgState) {
	if a.opts.Graph == nil {
		return
	}
	m.sendDoneRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx, End: true}
	m.sendDoneSet = true
	a.sinkMsgEdges(m)
}

func (a *analyzer) sinkRecvDone(rs *rankState, m *msgState) {
	if a.opts.Graph == nil {
		return
	}
	m.recvDoneRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx, End: true}
	m.recvDoneSet = true
	a.sinkMsgEdges(m)
}

func (a *analyzer) sinkMsgEdges(m *msgState) {
	if !m.recvDoneSet {
		return
	}
	sink := a.opts.Graph
	if !m.dataEmitted {
		sink.AddEdge(m.sendStartRef, m.recvDoneRef, EdgeMessage, 0,
			fmt.Sprintf("data %dB", m.bytes))
		m.dataEmitted = true
	}
	if m.sendDoneSet && !m.ackEmitted {
		sink.AddEdge(m.recvDoneRef, m.sendDoneRef, EdgeMessage, 0, "ack")
		m.ackEmitted = true
	}
}

// --- window accounting ---------------------------------------------------

func (a *analyzer) windowGrow() {
	a.pendingOps++
	if a.pendingOps > a.res.WindowHighWater {
		a.res.WindowHighWater = a.pendingOps
	}
}

func (a *analyzer) windowShrink() { a.pendingOps-- }
