// Package baseline is a Dimemas-style trace replayer: a classic
// discrete-event simulation that rebuilds a traced run's timing from a
// linear communication model (latency + size/bandwidth [+ noise]),
// keeping the traced CPU bursts (optionally rescaled).
//
// It exists as the related-work comparator (paper Section 1.1): the
// graph-traversal analyzer and this replayer answer similar questions,
// but differ exactly where the paper says they do —
//
//  1. the replayer *replaces* communication timings with its model,
//     while the analyzer perturbs the traced timings;
//  2. the replayer compares timestamps across ranks, so it silently
//     requires globally resolved clocks (the analyzer does not, §4.1);
//  3. the replayer loads each rank's full trace in core (as Dimemas
//     does), while the analyzer streams through a bounded window.
//
// Ablation C in EXPERIMENTS.md benchmarks both on the same traces.
package baseline

import (
	"fmt"
	"sort"

	"mpgraph/internal/des"
	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
)

// Params is the linear communication model.
type Params struct {
	// Latency is the fixed one-way message latency in cycles.
	Latency int64
	// BytesPerCycle is the link bandwidth (0 disables the size term).
	BytesPerCycle float64
	// CPURatio rescales traced compute gaps (1.0 = unchanged, 0 is
	// treated as 1.0; 2.0 = a CPU half as fast).
	CPURatio float64
	// OSNoise, when non-nil, adds a sampled delay to every compute gap.
	OSNoise dist.Distribution
	// Seed drives noise sampling.
	Seed uint64
	// EagerData, when true, anchors each transfer at the sender: the
	// payload departs when the send posts and arrives commTime later,
	// so a receiver posting after the arrival finds the data already
	// delivered — the timing structure of the graph model's Fig. 2
	// data path. False keeps the classic Dimemas rendezvous, where the
	// transfer starts only once both sides are ready. The differential
	// verification harness (internal/verify) uses eager mode so the
	// two engines' merge structures align edge for edge.
	EagerData bool
	// MaxEvents aborts the replay with an error once the simulator has
	// fired this many events (0 = unbounded) — a guard for randomized
	// campaigns over generated traces.
	MaxEvents uint64
}

// Result is the replay outcome.
type Result struct {
	// FinalTimes is each rank's predicted completion time on the
	// replayer's global clock.
	FinalTimes []int64
	// Makespan is the maximum of FinalTimes.
	Makespan int64
	// EventsFired counts discrete events processed (the replay's cost
	// measure for the ablation benches).
	EventsFired uint64
	// Records is the total number of trace records replayed.
	Records int64
}

type xferKey struct {
	comm     int32
	src, dst int32
	tag      int32
}

type xfer struct {
	bytes       int64
	sendReady   bool
	recvReady   bool
	sendReadyAt int64
	recvReadyAt int64
	arrival     int64
	done        bool
	sendWaiter  *rankProc
	recvWaiter  *rankProc
}

type collKey struct {
	comm int32
	seq  int64
}

type coll struct {
	expect   int
	arrivals []int64
	procs    []*rankProc
	bytes    int64
}

type rankProc struct {
	rank    int
	recs    []trace.Record
	idx     int
	t       int64 // replayed global time
	reqs    map[uint64]*xfer
	reqIs   map[uint64]bool // request id -> isSend
	done    bool
	gapDone bool  // current record's preceding gap already elapsed
	posted  bool  // current record's side effects already applied
	curX    *xfer // the transfer the current record posted
}

// step advances to the next record, resetting per-record progress.
func (pr *rankProc) step() {
	pr.idx++
	pr.gapDone = false
	pr.posted = false
	pr.curX = nil
}

type replayer struct {
	sim    *des.Sim
	params Params
	rng    []*dist.RNG
	procs  []*rankProc
	queues map[xferKey][]*xfer
	colls  map[collKey]*coll
	ret    *retimeState // non-nil only under ReplayRetimed
}

// Replay rebuilds the traced run under the linear model. The trace's
// per-rank timestamps are interpreted on a shared global clock (the
// Dimemas assumption; feed aligned-clock traces).
func Replay(set *trace.Set, p Params) (*Result, error) {
	res, _, err := replay(set, p, false)
	return res, err
}

// replay is the shared implementation; retime additionally rebuilds
// the trace on the replayed schedule and accounts merge slack.
func replay(set *trace.Set, p Params, retime bool) (*Result, *retimeState, error) {
	//mpg:lint-ignore floateq zero-value default: an unset CPURatio is exactly 0 and selects the 1.0 ratio
	if p.CPURatio == 0 {
		p.CPURatio = 1.0
	}
	if p.CPURatio < 0 {
		return nil, nil, fmt.Errorf("baseline: negative CPU ratio %g", p.CPURatio)
	}
	if p.Latency < 0 {
		return nil, nil, fmt.Errorf("baseline: negative latency %d", p.Latency)
	}
	n := set.NRanks()
	r := &replayer{
		sim:    &des.Sim{},
		params: p,
		rng:    make([]*dist.RNG, n),
		procs:  make([]*rankProc, n),
		queues: map[xferKey][]*xfer{},
		colls:  map[collKey]*coll{},
	}
	if p.MaxEvents > 0 {
		r.sim.SetLimit(p.MaxEvents)
	}
	if retime {
		r.ret = &retimeState{
			recs: make([][]trace.Record, n),
			hdrs: make([]trace.Header, n),
		}
	}
	root := dist.NewRNG(p.Seed)
	res := &Result{FinalTimes: make([]int64, n)}
	for rank := 0; rank < n; rank++ {
		r.rng[rank] = root.ForkNamed(fmt.Sprintf("rank-%d", rank))
		m, err := trace.ReadAll(set.Rank(rank))
		if err != nil {
			return nil, nil, err
		}
		recs := m.Records
		res.Records += int64(len(recs))
		r.procs[rank] = &rankProc{
			rank:  rank,
			recs:  recs,
			reqs:  map[uint64]*xfer{},
			reqIs: map[uint64]bool{},
		}
		if r.ret != nil {
			r.ret.hdrs[rank] = set.Rank(rank).Header()
			r.ret.recs[rank] = append([]trace.Record(nil), recs...)
		}
	}
	for _, pr := range r.procs {
		pr := pr
		r.sim.At(0, des.EventFunc(func(*des.Sim) { r.advance(pr) }))
	}
	r.sim.Run()
	if r.sim.LimitReached() {
		return nil, nil, fmt.Errorf("baseline: replay exceeded the %d-event budget", p.MaxEvents)
	}

	var stuck []string
	for rank, pr := range r.procs {
		if !pr.done {
			stuck = append(stuck, fmt.Sprintf("rank %d at record %d", rank, pr.idx))
		}
		res.FinalTimes[rank] = pr.t
		if pr.t > res.Makespan {
			res.Makespan = pr.t
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return nil, nil, fmt.Errorf("baseline: replay deadlocked: %v", stuck)
	}
	res.EventsFired = r.sim.Fired()
	return res, r.ret, nil
}

// commTime is the linear model's transfer time for a payload.
func (r *replayer) commTime(bytes int64) int64 {
	t := r.params.Latency
	if r.params.BytesPerCycle > 0 && bytes > 0 {
		t += int64(float64(bytes) / r.params.BytesPerCycle)
	}
	return t
}

// gapTime rescales a traced compute gap and adds sampled noise
// (zero-length gaps accrue none, matching the analyzer's rule).
func (r *replayer) gapTime(rank int, gap int64) int64 {
	if gap <= 0 {
		return 0
	}
	out := int64(float64(gap) * r.params.CPURatio)
	if r.params.OSNoise != nil {
		n := int64(r.params.OSNoise.Sample(r.rng[rank]))
		if n > 0 {
			out += n
		}
	}
	return out
}

// advance runs one rank forward until it blocks, finishes, or yields
// to a scheduled wake. A parked rank re-enters at its current record;
// the gapDone/posted flags keep side effects single-shot.
func (r *replayer) advance(pr *rankProc) {
	for pr.idx < len(pr.recs) {
		rec := pr.recs[pr.idx]
		if !pr.gapDone {
			if pr.idx > 0 {
				gap := rec.Begin - pr.recs[pr.idx-1].End
				pr.t += r.gapTime(pr.rank, gap)
			}
			pr.gapDone = true
			if r.ret != nil {
				r.ret.recs[pr.rank][pr.idx].Begin = pr.t
			}
		}
		switch {
		case rec.Kind == trace.KindInit || rec.Kind == trace.KindFinalize ||
			rec.Kind == trace.KindMarker:
			pr.t += rec.Duration()

		case rec.Kind == trace.KindSend:
			if !pr.posted {
				pr.curX = r.post(pr, rec, true)
				pr.posted = true
			}
			x := pr.curX
			if !x.done {
				x.sendWaiter = pr
				return // parked; resolver reschedules us
			}
			s := x.arrival + r.params.Latency // rendezvous ack
			r.noteMergeSlack(pr.t, s)
			if s > pr.t {
				pr.t = s
			}

		case rec.Kind == trace.KindRecv:
			if !pr.posted {
				pr.curX = r.post(pr, rec, false)
				pr.posted = true
			}
			x := pr.curX
			if !x.done {
				x.recvWaiter = pr
				return
			}
			r.noteMergeSlack(pr.t, x.arrival)
			if x.arrival > pr.t {
				pr.t = x.arrival
			}

		case rec.Kind == trace.KindIsend || rec.Kind == trace.KindIrecv:
			isSend := rec.Kind == trace.KindIsend
			x := r.post(pr, rec, isSend)
			pr.reqs[rec.Req] = x
			pr.reqIs[rec.Req] = isSend
			pr.t += rec.Duration()

		case rec.Kind.IsCompletion():
			x := pr.reqs[rec.Req]
			if x == nil {
				// Corrupt trace; treat as instantaneous.
				break
			}
			if !x.done {
				if pr.reqIs[rec.Req] {
					x.sendWaiter = pr
				} else {
					x.recvWaiter = pr
				}
				return
			}
			c := x.arrival
			if pr.reqIs[rec.Req] {
				c += r.params.Latency // ack
			}
			r.noteMergeSlack(pr.t, c)
			if c > pr.t {
				pr.t = c
			}

		case rec.Kind.IsCollective():
			key := collKey{comm: rec.Comm, seq: rec.Seq}
			cs := r.colls[key]
			if cs == nil {
				cs = &coll{expect: int(rec.CommSize), bytes: rec.Bytes}
				r.colls[key] = cs
			}
			if !pr.posted {
				cs.arrivals = append(cs.arrivals, pr.t)
				cs.procs = append(cs.procs, pr)
				pr.posted = true
			}
			if len(cs.arrivals) < cs.expect {
				return // parked until the group completes
			}
			r.resolveColl(cs)
			delete(r.colls, key)
			// resolveColl advanced and rescheduled everyone, including
			// this rank.
			return

		default:
			pr.t += rec.Duration()
		}
		if r.ret != nil {
			r.ret.recs[pr.rank][pr.idx].End = pr.t
		}
		pr.step()
	}
	pr.done = true
}

// noteMergeSlack records the absolute gap between the two paths of a
// max() merge in the base schedule. The total is the retimed replay's
// slack budget: the graph model's delay overestimate at any node is
// bounded by the merge slack accumulated along its path (doc/VERIFY.md
// derives this), so the sum over all merges bounds it globally.
func (r *replayer) noteMergeSlack(local, remote int64) {
	if r.ret == nil {
		return
	}
	d := local - remote
	if d < 0 {
		d = -d
	}
	r.ret.slack += d
}

// post registers one side of a transfer and resolves it when both
// sides are present.
func (r *replayer) post(pr *rankProc, rec trace.Record, isSend bool) *xfer {
	var key xferKey
	if isSend {
		key = xferKey{comm: rec.Comm, src: int32(pr.rank), dst: rec.Peer, tag: rec.Tag}
	} else {
		key = xferKey{comm: rec.Comm, src: rec.Peer, dst: int32(pr.rank), tag: rec.Tag}
	}
	q := r.queues[key]
	var x *xfer
	for _, cand := range q {
		if isSend && !cand.sendReady || !isSend && !cand.recvReady {
			x = cand
			break
		}
	}
	if x == nil {
		x = &xfer{}
		r.queues[key] = append(q, x)
	}
	if isSend {
		x.sendReady = true
		x.sendReadyAt = pr.t
		x.bytes = rec.Bytes
	} else {
		x.recvReady = true
		x.recvReadyAt = pr.t
	}
	if x.sendReady && x.recvReady && !x.done {
		if r.params.EagerData {
			// Sender-anchored: the payload left at the send post; a
			// late receiver finds it delivered (Fig. 2 data path).
			x.arrival = x.sendReadyAt + r.commTime(x.bytes)
			r.noteMergeSlack(x.recvReadyAt, x.arrival)
			if x.recvReadyAt > x.arrival {
				x.arrival = x.recvReadyAt
			}
		} else {
			start := x.sendReadyAt
			if x.recvReadyAt > start {
				start = x.recvReadyAt
			}
			r.noteMergeSlack(x.sendReadyAt, x.recvReadyAt)
			x.arrival = start + r.commTime(x.bytes)
		}
		x.done = true
		r.dropMatched(key, x)
		r.wakeXfer(x)
	}
	return x
}

func (r *replayer) dropMatched(key xferKey, x *xfer) {
	q := r.queues[key]
	for i, cand := range q {
		if cand == x {
			r.queues[key] = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(r.queues[key]) == 0 {
		delete(r.queues, key)
	}
}

// wakeXfer reschedules any rank parked on the transfer. The parked
// rank re-processes its current record, which now resolves.
func (r *replayer) wakeXfer(x *xfer) {
	at := x.arrival
	if at < r.sim.Now() {
		at = r.sim.Now()
	}
	if x.sendWaiter != nil {
		pr := x.sendWaiter
		x.sendWaiter = nil
		r.sim.At(at, des.EventFunc(func(*des.Sim) { r.advance(pr) }))
	}
	if x.recvWaiter != nil {
		pr := x.recvWaiter
		x.recvWaiter = nil
		r.sim.At(at, des.EventFunc(func(*des.Sim) { r.advance(pr) }))
	}
}

// resolveColl applies the linear model to a completed collective: a
// dissemination pattern of ceil(log2 p) rounds, each costing one
// commTime of the collective's payload.
func (r *replayer) resolveColl(cs *coll) {
	max := cs.arrivals[0]
	for _, t := range cs.arrivals[1:] {
		if t > max {
			max = t
		}
	}
	rounds := int64(ceilLog2(cs.expect))
	end := max + rounds*r.commTime(cs.bytes)
	for _, pr := range cs.procs {
		pr := pr
		r.noteMergeSlack(pr.t, max)
		pr.t = end
		if r.ret != nil {
			r.ret.recs[pr.rank][pr.idx].End = end
		}
		pr.step()
		at := end
		if at < r.sim.Now() {
			at = r.sim.Now()
		}
		r.sim.At(at, des.EventFunc(func(*des.Sim) { r.advance(pr) }))
	}
}

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

// CollectiveRounds is the number of commTime rounds the replayer
// charges a p-participant collective: ceil(log2 p), minimum 1, for
// every collective kind (the replayer models them all as dissemination
// patterns). Exposed so the differential verification bounds can
// account for the graph model's differing round counts.
func CollectiveRounds(p int) int { return ceilLog2(p) }
