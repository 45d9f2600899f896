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
	defer opts.Metrics.Time("core_analyze").End()
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

	// sidesDone counts the completed sides: the end of a blocking Send
	// or Recv, or the wait on a request. The second one recycles the
	// transfer (analyzer.sideDone).
	sidesDone uint8

	// next links the unmatched posts of a matching queue in FIFO order,
	// and the recycled transfers of the analyzer's free list.
	next *msgState

	// The posts' start subevents, for critical-path steps, interval
	// peers and the compiled transfer's endpoints.
	sendStartRef NodeRef
	recvStartRef NodeRef
	// The posting ranks' critical-path frontiers, held until the
	// transfer is recycled (−1 when not recording).
	sendPred, recvPred int32

	tapeIdx int32 // transfer index on the compile tape, once matched
}

// msgQueue is one matching queue's unmatched posts in FIFO order,
// linked through msgState.next. A queue stays in the analyzer's map
// while its key is in use, so a transfer costs lookups only; an empty
// queue is listed (analyzer.emptied) and dropped by reclaimQueues.
type msgQueue struct {
	head, tail *msgState
	key        msgKey
	listed     bool // on analyzer.emptied
	inMap      bool // false once reclaimQueues has dropped it
}

// msgSlabLen is the number of msgStates, and of msgQueues, allocated
// together.
const msgSlabLen = 64

// queueReclaimSlack is how many emptied queues the analyzer lists
// before it drops the ones still empty, once they are also more than
// half the map. The queue map then holds at most this many plus the
// window (or twice the window, if that is more), even when every
// message has a fresh tag, and a trace whose keys recur, such as a
// 256-rank stencil2d with about 1,000, keeps every queue.
const queueReclaimSlack = 4096

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
	outD      float64     // resolved completion contribution
	outAttr   Attribution // attribution of outD from this rank's view
	// pred is the rank's critical-path frontier at arrival, held until
	// every participant finishes (−1 when not recording).
	pred int32
	// outWin anchors outD for critical-path extraction: the participant
	// whose path won the collective's max (the hub argmax in approx
	// mode, the adopt-chain origin in explicit mode).
	outWin  *collParticipant
	tapeIdx int32 // participant index on the compile tape, once resolved
}

// collState gathers a collective's participants until all arrive.
type collState struct {
	kind     trace.Kind
	bytes    int64
	expect   int
	root     int32
	parts    []collParticipant
	resolved bool
	finished int // participants whose record has finished
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
	batch  []trace.Record // fetched and not yet begun; the next Batch call may overwrite it

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
	// myMsg is the transfer whose side cur completes: a blocking
	// Send/Recv's own, or the one a wait's request names.
	myMsg    *msgState
	myColl   *collState
	collPart int // this rank's index in myColl.parts

	region int32
	// reg caches the stats bucket of (rank, region) and recRegion the
	// compile recorder's dense index for it (-1: not yet resolved).
	// A marker that changes the region drops both.
	reg       *RegionStats
	recRegion int32

	// sendQ and recvQ are the queues of the rank's last send and receive
	// posts: a rank that keeps posting to the same peer and tag finds its
	// queue without hashing the key.
	sendQ, recvQ *msgQueue

	// Pending interval detail for the current record: the wait charged
	// by the completion merge and its state (also what the critical-path
	// entry derives from) and, for receive completions, the matched
	// sender subevent.
	ivWait      float64
	ivState     WaitState
	ivPeerRank  int
	ivPeerEvent int64

	// reqTab is a sliding window over consecutive request ids, as the
	// mpi runtime issues them: reqTab[i] is request reqBase+i, and a nil
	// msg marks a request its wait has retired. The first reqFront
	// entries are retired; an append at capacity reclaims them. Any
	// other id lives in reqs (nil until needed).
	reqTab   []reqRef
	reqBase  uint64
	reqFront int
	reqs     map[uint64]*reqRef

	sendReqs    int64
	waitedSends int64
	unwaited    int
}

// reqRef links a pending request id to its transfer and side.
type reqRef struct {
	msg    *msgState
	isSend bool
}

// req returns the pending request with the given id, or nil.
func (rs *rankState) req(id uint64) *reqRef {
	if i := id - rs.reqBase; i < uint64(len(rs.reqTab)) { // ids below the window wrap past it
		if ref := &rs.reqTab[i]; ref.msg != nil {
			return ref
		}
		return nil
	}
	return rs.reqs[id]
}

// addReq registers a posted request, replacing a pending one with the
// same id.
func (rs *rankState) addReq(id uint64, ref reqRef) {
	i := id - rs.reqBase
	switch {
	case i < uint64(len(rs.reqTab)):
		rs.reqTab[i] = ref
		rs.reqFront = min(rs.reqFront, int(i))
	case i == uint64(len(rs.reqTab)):
		if n := len(rs.reqTab); n == cap(rs.reqTab) && 2*rs.reqFront >= n {
			// At least half the window is retired: slide the live part
			// down instead of growing.
			rs.reqTab = rs.reqTab[:copy(rs.reqTab, rs.reqTab[rs.reqFront:])]
			rs.reqBase += uint64(rs.reqFront)
			rs.reqFront = 0
		}
		rs.reqTab = append(rs.reqTab, ref)
		delete(rs.reqs, id) // the window now shadows any sparse entry
	default:
		if rs.reqs == nil {
			rs.reqs = map[uint64]*reqRef{}
		}
		p := new(reqRef) // a fresh copy: &ref would move every call's ref to the heap
		*p = ref
		rs.reqs[id] = p
	}
}

// retireReq drops the request that a wait has just completed. The
// window's front advances past retired entries; once all are retired
// the window empties and starts at the next id.
func (rs *rankState) retireReq(id uint64) {
	i := id - rs.reqBase
	if i >= uint64(len(rs.reqTab)) {
		delete(rs.reqs, id)
		return
	}
	rs.reqTab[i] = reqRef{}
	for rs.reqFront < len(rs.reqTab) && rs.reqTab[rs.reqFront].msg == nil {
		rs.reqFront++
	}
	if rs.reqFront == len(rs.reqTab) {
		rs.reqBase += uint64(len(rs.reqTab))
		rs.reqTab = rs.reqTab[:0]
		rs.reqFront = 0
	}
}

// --- analyzer -----------------------------------------------------------

type analyzer struct {
	set   *trace.Set
	model *Model
	opts  Options
	smp   *sampler
	res   *Result

	ranks   []rankState
	queues  map[msgKey]*msgQueue // unmatched posts, FIFO per key
	colls   map[collKey]*collState
	msgSlab []msgState // unused msgStates, handed out by newMsg
	msgFree *msgState  // recycled msgStates, linked through next

	// emptied lists the queues that emptied since the last reclaim, in
	// the order they did; queueSlab and queueFree feed newQueue as
	// msgSlab and msgFree feed newMsg.
	emptied   []*msgQueue
	queueSlab []msgQueue
	queueFree []*msgQueue

	// regSlab hands out the region stats that Result.Regions points to.
	regSlab []RegionStats

	pendingOps int

	runnable []int
	queued   []bool

	// crit holds the recorded end-merge decisions that can still reach
	// the critical path; nil unless Options.RecordCritPath.
	crit *critPool

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
	cnt engineCounts
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
		res:    &Result{NRanks: n, Ranks: make([]RankResult, n), Regions: make(map[RegionKey]*RegionStats, n)},
		ranks:  make([]rankState, n),
		queues: make(map[msgKey]*msgQueue, n),
		colls:  map[collKey]*collState{},
		queued: make([]bool, n),
	}
	if opts.RecordCritPath {
		a.crit = newCritPool(n)
	}
	for r := range a.ranks {
		a.ranks[r] = rankState{
			rank:      r,
			reader:    set.Rank(r),
			region:    -1,
			recRegion: -1,
			reqBase:   1, // the mpi runtime's first request id
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
		if err := a.processBurst(&a.ranks[rank]); err != nil {
			return nil, err
		}
	}
	// Every rank must have drained cleanly.
	var stuck []string
	for i := range a.ranks {
		if rs := &a.ranks[i]; rs.ph != phaseEOF {
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
	if err := a.res.checkFinite(); err != nil {
		return nil, err
	}
	if a.crit != nil {
		a.res.CritPath = buildCritPath(a.res, a.crit.nodes, a.crit.front)
	}
	flushMetrics(a.opts.Metrics, "core_analyses_total", a.res, &a.cnt, a.smp)
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
			if len(rs.batch) == 0 {
				batch, err := rs.reader.Batch()
				if err != nil { // tested first: errors.Is costs a call per batch
					return a.fetchError(rs, err)
				}
				rs.batch = batch
			}
			rec := &rs.batch[0]
			rs.batch = rs.batch[1:]
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

// fetchError ends the rank at io.EOF and otherwise reports the
// reader's error; an invalid in-memory record is reported by its
// index, as the reader hands out validated records only.
func (a *analyzer) fetchError(rs *rankState, err error) error {
	if errors.Is(err, io.EOF) {
		a.finishRank(rs)
		return nil
	}
	var bad *trace.RecordError
	if errors.As(err, &bad) {
		return fmt.Errorf("core: rank %d record %d: %w", rs.rank, bad.Index, bad.Err)
	}
	return fmt.Errorf("core: rank %d: %w", rs.rank, err)
}

// beginRecord handles the record's start subevent: the compute-gap
// local edge and the queue side effects that must happen exactly once.
// The reader has validated the record.
func (a *analyzer) beginRecord(rs *rankState, rec *trace.Record) error {
	gap := int64(0)
	if rs.started {
		if rec.Begin < rs.prevEnd {
			return fmt.Errorf("core: rank %d: record %d overlaps its predecessor", rs.rank, rs.eventIdx)
		}
		if gap = rec.Begin - rs.prevEnd; gap < 0 {
			return fmt.Errorf("core: rank %d: compute gap before record %d (begin %d after the previous end %d) overflows int64",
				rs.rank, rs.eventIdx, rec.Begin, rs.prevEnd)
		}
	}
	rs.cur = *rec
	rs.posted = false
	rs.myMsg = nil
	rs.myColl = nil
	rs.ivWait = 0
	rs.ivState = WaitNone
	rs.ivPeerRank = -1
	rs.ivPeerEvent = 0
	rs.ph = phaseComplete

	if a.rec != nil {
		a.rec.onBegin(rs, gap)
	}
	rs.startD, rs.startAttr = beginKernel(a.smp, a.res, rs.rank, gap, rs.prevD, rs.prevAttr)
	if rs.started {
		a.cnt.localEdges++ // compute-gap edge
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
		endD, endAttr = localEndKernel(a.smp, &a.res.Ranks[rs.rank], rs.rank, rs.startD, rs.startAttr, rec.Duration())

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
	endD = commitKernel(a.res, &a.res.Ranks[rs.rank], a.region(rs), a.model.AllowNegative, rs.startD, endD, rec.Duration())
	a.cnt.localEdges++ // the event-internal start→end edge
	if a.crit != nil {
		win, winD, pred := a.endWinner(rs)
		a.crit.push(rs.rank, critNode{endD: endD, winStartD: winD, winEvent: win.Event,
			winRank: int32(win.Rank), pred: pred, state: rs.ivState})
	}
	// The recorder and the critical-path log have read the request, the
	// transfer and the collective: retire the one and complete this
	// rank's side of the others.
	if rec.Kind.IsCompletion() {
		rs.retireReq(rec.Req)
	}
	if m := rs.myMsg; m != nil {
		rs.myMsg = nil
		a.sideDone(m)
	}
	if cs := rs.myColl; cs != nil {
		rs.myColl = nil
		a.collDone(cs)
	}
	rs.started = true
	rs.prevEnd = rec.End
	rs.prevD = endD
	rs.prevAttr = endAttr
	rs.eventIdx++
	rs.ph = phaseFetch
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
			Region:     rs.region,
		})
	}
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

// region returns (creating if needed) the stats bucket of the rank's
// current marker region, through the rank's cache. New buckets come
// from a slab of one per rank.
func (a *analyzer) region(rs *rankState) *RegionStats {
	if rs.reg == nil {
		key := RegionKey{Rank: rs.rank, Region: rs.region}
		rs.reg = a.res.Regions[key]
		if rs.reg == nil {
			if len(a.regSlab) == 0 {
				a.regSlab = make([]RegionStats, len(a.ranks))
			}
			rs.reg = &a.regSlab[0]
			a.regSlab = a.regSlab[1:]
			a.res.Regions[key] = rs.reg
		}
	}
	return rs.reg
}

// --- point-to-point -----------------------------------------------------

// postP2P registers the record's post with the matching queues and
// resolves the transfer if the counterpart has already posted.
func (a *analyzer) postP2P(rs *rankState, rec trace.Record, isSend bool, startD float64) *msgState {
	var key msgKey
	var q *msgQueue
	if isSend {
		key = msgKey{comm: rec.Comm, src: int32(rs.rank), dst: rec.Peer, tag: rec.Tag}
		q = a.queue(&rs.sendQ, key)
	} else {
		key = msgKey{comm: rec.Comm, src: rec.Peer, dst: int32(rs.rank), tag: rec.Tag}
		q = a.queue(&rs.recvQ, key)
	}
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
		a.windowGrow()
	}
	if isSend {
		m.sendSeen = true
		m.sendStartD = startD
		m.sendAttr = rs.startAttr
		m.bytes = rec.Bytes
		m.sendStartRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx}
		m.sendPred = a.holdFront(rs.rank)
	} else {
		m.recvSeen = true
		m.recvPostD = startD
		m.recvAttr = rs.startAttr
		m.recvStartRef = NodeRef{Rank: rs.rank, Event: rs.eventIdx}
		m.recvPred = a.holdFront(rs.rank)
	}
	if m.sendSeen && m.recvSeen && !m.matched {
		a.resolveMatch(q, m, int(key.dst))
	}
	return m
}

// resolveMatch samples the transfer's deltas (sampler.sampleMatch),
// drops it from its queue q and reschedules the ranks stalled on it.
func (a *analyzer) resolveMatch(q *msgQueue, m *msgState, recvRank int) {
	a.smp.sampleMatch(&m.xfer, m.bytes, recvRank)
	m.matched = true
	a.cnt.matches++
	a.cnt.msgEdges += 2 // data + acknowledgment edges
	if a.rec != nil {
		a.rec.onMatch(m)
	}
	// Drop the matched entry from the front region of its queue.
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
	if q.head == nil && !q.listed {
		q.listed = true
		a.emptied = append(a.emptied, q)
		if len(a.emptied) > queueReclaimSlack && 2*len(a.emptied) > len(a.queues) {
			a.reclaimQueues()
		}
	}
	a.windowShrink()
	for _, w := range m.waiters {
		a.enqueue(w)
	}
	m.waiters = m.waiters[:0]
}

// newMsg hands out a zeroed msgState: a recycled one if the free list
// has any, else the next of the current slab.
func (a *analyzer) newMsg() *msgState {
	m := a.msgFree
	if m != nil {
		a.msgFree = m.next
		m.next = nil
	} else {
		if len(a.msgSlab) == 0 {
			a.msgSlab = make([]msgState, msgSlabLen)
		}
		m = &a.msgSlab[0]
		a.msgSlab = a.msgSlab[1:]
	}
	m.waiters = m.waitBuf[:0]
	return m
}

// queue returns the matching queue of key, adding an empty one to the
// map if it has none, and leaves it in *last. A queue that *last still
// holds for the same key is returned without a map lookup.
func (a *analyzer) queue(last **msgQueue, key msgKey) *msgQueue {
	if q := *last; q != nil && q.inMap && q.key == key {
		return q
	}
	q := a.queues[key]
	if q == nil {
		q = a.newQueue(key)
		a.queues[key] = q
	}
	*last = q
	return q
}

// newQueue hands out an empty queue for key: a reclaimed one if any,
// else the next of the current slab.
func (a *analyzer) newQueue(key msgKey) *msgQueue {
	var q *msgQueue
	if n := len(a.queueFree); n > 0 {
		q = a.queueFree[n-1]
		a.queueFree = a.queueFree[:n-1]
	} else {
		if len(a.queueSlab) == 0 {
			a.queueSlab = make([]msgQueue, msgSlabLen)
		}
		q = &a.queueSlab[0]
		a.queueSlab = a.queueSlab[1:]
	}
	q.key = key
	q.inMap = true
	return q
}

// reclaimQueues drops the listed queues that are still empty from the
// map, in the order they emptied, and keeps them for newQueue. A listed
// queue that has refilled stays; it is listed again when it empties.
func (a *analyzer) reclaimQueues() {
	for _, q := range a.emptied {
		q.listed = false
		if q.head == nil {
			delete(a.queues, q.key)
			q.inMap = false
			a.queueFree = append(a.queueFree, q)
		}
	}
	clear(a.emptied)
	a.emptied = a.emptied[:0]
}

// sideDone completes one side of a matched transfer. After the second,
// no queue, request or rank refers to the transfer any more, so it
// drops its critical-path references and is zeroed onto the free list.
func (a *analyzer) sideDone(m *msgState) {
	if m.sidesDone++; m.sidesDone == 2 {
		if a.crit != nil {
			a.crit.release(m.sendPred)
			a.crit.release(m.recvPred)
		}
		*m = msgState{next: a.msgFree}
		a.msgFree = m
	}
}

// collDone counts one participant's finished collective record. After
// the last, the participants' critical-path references go.
func (a *analyzer) collDone(cs *collState) {
	if cs.finished++; cs.finished == len(cs.parts) && a.crit != nil {
		for i := range cs.parts {
			a.crit.release(cs.parts[i].pred)
		}
	}
}

// holdFront takes a reference to the rank's critical-path frontier for
// a post or an arrival that its record's end merge may name as winner;
// −1 when not recording.
func (a *analyzer) holdFront(rank int) int32 {
	if a.crit == nil {
		return -1
	}
	return a.crit.hold(a.crit.front[rank])
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
	d, attr := a.p2pCompletion(rs, m, isSend, rec.Duration())
	return d, attr, true, nil
}

// endWinner names the start subevent whose path won the current
// record's end merge, as its wait state tells — the record's own start
// when the local path won, else the winning post of its transfer or the
// winning participant of its collective — with D there and the
// critical-path node of the end just before it.
func (a *analyzer) endWinner(rs *rankState) (NodeRef, float64, int32) {
	switch rs.ivState {
	case WaitLateSender, WaitLateReceiver:
		m := rs.myMsg
		if sendPostWon(&m.xfer, rs.ivState, a.model.Propagation) {
			return m.sendStartRef, m.sendStartD, m.sendPred
		}
		return m.recvStartRef, m.recvPostD, m.recvPred
	case WaitCollective:
		w := rs.myColl.parts[rs.collPart].outWin
		return w.startRef, w.startD, w.pred
	}
	return NodeRef{Rank: rs.rank, Event: rs.eventIdx}, rs.startD, a.crit.front[rs.rank]
}

// p2pCompletion resolves the end subevent of a send or receive
// completion by Eq. 1 (sendCompletionKernel, recvCompletionKernel),
// keeping the merge's wait and, for a receive, the matched sender
// subevent for the interval hook.
func (a *analyzer) p2pCompletion(rs *rankState, m *msgState, isSend bool, w int64) (d float64, attr Attribution) {
	rr, reg := &a.res.Ranks[rs.rank], a.region(rs)
	if isSend {
		d, attr, rs.ivWait, rs.ivState = sendCompletionKernel(a.smp, rr, reg, rs.rank, rs.startD, rs.startAttr, w, &m.xfer)
		return d, attr
	}
	rs.ivPeerRank = m.sendStartRef.Rank
	rs.ivPeerEvent = m.sendStartRef.Event
	d, attr, rs.ivWait, rs.ivState = recvCompletionKernel(a.model.Propagation, rr, reg, rs.startD, rs.startAttr, w, &m.xfer)
	return d, attr
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
		return 0, Attribution{}, false, fmt.Errorf("core: rank %d: wait on request %d, which is not pending (an unknown request, or one an earlier wait completed)", rs.rank, rec.Req)
	}
	m := ref.msg
	if !m.matched {
		m.waiters = append(m.waiters, rs.rank)
		return 0, Attribution{}, false, nil
	}
	// This wait completes the request: finishRecord retires it and
	// completes the transfer's side.
	rs.myMsg = m
	rs.unwaited--
	if ref.isSend {
		rs.waitedSends++
	}
	d, attr := a.p2pCompletion(rs, m, ref.isSend, rec.Duration())
	return d, attr, true, nil
}

// --- window accounting ---------------------------------------------------

func (a *analyzer) windowGrow() {
	a.pendingOps++
	if a.pendingOps > a.res.WindowHighWater {
		a.res.WindowHighWater = a.pendingOps
	}
}

func (a *analyzer) windowShrink() { a.pendingOps-- }
