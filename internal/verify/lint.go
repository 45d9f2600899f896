package verify

import (
	"fmt"
	"sort"

	"mpgraph/internal/core"
	"mpgraph/internal/trace"
)

// Lint finding classes.
const (
	// LintBadRecord: a record fails trace.Record.Validate (field
	// applicability, End < Begin, missing request/sequence ids) or
	// reuses a still-pending request id.
	LintBadRecord = "bad-record"
	// LintNonMonotone: a record begins before its predecessor on the
	// same rank ended — local timestamps must be monotone.
	LintNonMonotone = "non-monotone-timestamp"
	// LintUnmatchedSend / LintUnmatchedRecv: a point-to-point posting
	// with no counterpart on the peer rank.
	LintUnmatchedSend = "unmatched-send"
	LintUnmatchedRecv = "unmatched-recv"
	// LintDanglingWait: a wait whose request id was never posted (or
	// was already completed).
	LintDanglingWait = "dangling-wait"
	// LintUnwaitedRequest: a nonblocking posting whose request is
	// never completed (the paper's §4.3 caveat: perturbations cannot
	// propagate back to a rank that never checks completion).
	LintUnwaitedRequest = "unwaited-request"
	// LintCollectiveMismatch: participants of one (comm, seq)
	// collective disagree on kind/root/size, or too many arrive.
	LintCollectiveMismatch = "collective-mismatch"
	// LintIncompleteCollective: fewer participants than the recorded
	// communicator size.
	LintIncompleteCollective = "incomplete-collective"
	// LintDeadlock: the trace cannot be replayed to completion — the
	// dependency structure stalls (a waits-for cycle, or a wait on an
	// exhausted peer).
	LintDeadlock = "deadlock"
	// LintNegativeEdge: a built graph edge with negative weight
	// (a non-monotone local interval that survived into the graph).
	LintNegativeEdge = "negative-edge"
	// LintGraphCycle: a cycle in the built graph — traversal order is
	// undefined, the trace cannot describe a real execution.
	LintGraphCycle = "graph-cycle"
)

// Finding is one linter diagnosis.
type Finding struct {
	// Class is one of the Lint* constants.
	Class string `json:"class"`
	// Rank is the offending rank, or -1 when the finding is global.
	Rank int `json:"rank"`
	// Event is the offending record index on Rank, or -1.
	Event int64 `json:"event"`
	// Message is the human-readable diagnosis.
	Message string `json:"message"`
}

// String renders the finding for text reports.
func (f Finding) String() string {
	where := "world"
	if f.Rank >= 0 {
		where = fmt.Sprintf("rank %d", f.Rank)
		if f.Event >= 0 {
			where = fmt.Sprintf("rank %d event %d", f.Rank, f.Event)
		}
	}
	return fmt.Sprintf("%s: %s: %s", f.Class, where, f.Message)
}

// chanKey identifies a directed point-to-point channel.
type chanKey struct {
	comm     int32
	src, dst int32
	tag      int32
}

// sortedChanKeys returns the map's channel keys in (comm, src, dst,
// tag) order, decoupling lint output from map iteration order.
func sortedChanKeys(m map[chanKey][]lintRef) []chanKey {
	keys := make([]chanKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.comm != b.comm {
			return a.comm < b.comm
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	return keys
}

// lintRef remembers where a posting came from.
type lintRef struct {
	rank  int
	event int64
	bytes int64
}

// collGroup accumulates one (comm, seq) collective's participants.
type collGroup struct {
	kind   trace.Kind
	root   int32
	size   int32
	first  lintRef
	seen   map[int]bool
	nParts int
	extra  bool
}

// LintTraces statically checks a set of per-rank traces: per-record
// validity, local timestamp monotonicity, request lifecycle,
// point-to-point matching, collective consistency, and replayability
// (deadlock freedom under an eager-send interpretation). Findings are
// returned sorted by rank, then event.
func LintTraces(traces []*trace.MemTrace) []Finding {
	var out []Finding
	addf := func(class string, rank int, event int64, format string, args ...interface{}) {
		out = append(out, Finding{Class: class, Rank: rank, Event: event, Message: fmt.Sprintf(format, args...)})
	}

	sends := map[chanKey][]lintRef{}
	recvs := map[chanKey][]lintRef{}
	colls := map[collKey]*collGroup{}
	var collOrder []collKey

	for rank, mt := range traces {
		var prevEnd int64
		pending := map[uint64]trace.Kind{}
		for i, rec := range mt.Records {
			ev := int64(i)
			if err := rec.Validate(); err != nil {
				addf(LintBadRecord, rank, ev, "%v", err)
				continue
			}
			if i > 0 && rec.Begin < prevEnd {
				addf(LintNonMonotone, rank, ev, "%s begins at %d before the previous event ended at %d", rec.Kind, rec.Begin, prevEnd)
			}
			if rec.End > prevEnd {
				prevEnd = rec.End
			}
			switch {
			case rec.Kind == trace.KindSend || rec.Kind == trace.KindIsend:
				key := chanKey{comm: rec.Comm, src: int32(rank), dst: rec.Peer, tag: rec.Tag}
				sends[key] = append(sends[key], lintRef{rank: rank, event: ev, bytes: rec.Bytes})
			case rec.Kind == trace.KindRecv || rec.Kind == trace.KindIrecv:
				key := chanKey{comm: rec.Comm, src: rec.Peer, dst: int32(rank), tag: rec.Tag}
				recvs[key] = append(recvs[key], lintRef{rank: rank, event: ev, bytes: rec.Bytes})
			case rec.Kind.IsCollective():
				key := collKey{comm: rec.Comm, seq: rec.Seq}
				g := colls[key]
				if g == nil {
					g = &collGroup{
						kind:  rec.Kind,
						root:  rec.Root,
						size:  rec.CommSize,
						first: lintRef{rank: rank, event: ev},
						seen:  map[int]bool{},
					}
					colls[key] = g
					collOrder = append(collOrder, key)
				}
				switch {
				case g.kind != rec.Kind || g.root != rec.Root || g.size != rec.CommSize:
					addf(LintCollectiveMismatch, rank, ev,
						"%s(root=%d,size=%d) at comm %d seq %d conflicts with %s(root=%d,size=%d) posted by rank %d",
						rec.Kind, rec.Root, rec.CommSize, rec.Comm, rec.Seq, g.kind, g.root, g.size, g.first.rank)
				case g.seen[rank]:
					addf(LintCollectiveMismatch, rank, ev, "rank participates twice in %s comm %d seq %d", rec.Kind, rec.Comm, rec.Seq)
				default:
					g.seen[rank] = true
					g.nParts++
					if g.nParts > int(g.size) && !g.extra {
						g.extra = true
						addf(LintCollectiveMismatch, rank, ev, "%s comm %d seq %d has more participants than its size %d", rec.Kind, rec.Comm, rec.Seq, g.size)
					}
				}
			}
			if rec.Kind.IsNonblocking() {
				if _, dup := pending[rec.Req]; dup {
					addf(LintBadRecord, rank, ev, "%s reuses still-pending request %d", rec.Kind, rec.Req)
				} else {
					pending[rec.Req] = rec.Kind
				}
			}
			if rec.Kind.IsCompletion() {
				if _, ok := pending[rec.Req]; !ok {
					addf(LintDanglingWait, rank, ev, "%s completes request %d, which is not pending", rec.Kind, rec.Req)
				} else {
					delete(pending, rec.Req)
				}
			}
		}
		if len(pending) > 0 {
			reqs := make([]uint64, 0, len(pending))
			for req := range pending {
				reqs = append(reqs, req)
			}
			sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
			for _, req := range reqs {
				addf(LintUnwaitedRequest, rank, -1, "%s request %d is never completed", pending[req], req)
			}
		}
	}

	// FIFO point-to-point matching: pair sends and recvs per channel.
	// Channels are visited in sorted key order: the final sort below
	// keys findings by (rank, event) only, so ties between findings
	// at the same position must not inherit map iteration order.
	for _, key := range sortedChanKeys(sends) {
		ss := sends[key]
		rs := recvs[key]
		for i := len(rs); i < len(ss); i++ {
			addf(LintUnmatchedSend, ss[i].rank, ss[i].event, "send to rank %d tag %d comm %d has no matching receive", key.dst, key.tag, key.comm)
		}
	}
	for _, key := range sortedChanKeys(recvs) {
		rs := recvs[key]
		ss := sends[key]
		for i := len(ss); i < len(rs); i++ {
			addf(LintUnmatchedRecv, rs[i].rank, rs[i].event, "receive from rank %d tag %d comm %d has no matching send", key.src, key.tag, key.comm)
		}
	}
	for _, key := range collOrder {
		g := colls[key]
		if !g.extra && g.nParts < int(g.size) {
			addf(LintIncompleteCollective, g.first.rank, g.first.event, "%s comm %d seq %d has %d of %d participants", g.kind, key.comm, key.seq, g.nParts, g.size)
		}
	}

	out = append(out, lintProgress(traces)...)

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Event < out[j].Event
	})
	return out
}

// collKey matches internal collective grouping (comm, seq).
type collKey struct {
	comm int32
	seq  int64
}

// lintProgress replays the traces' dependency structure with a
// pointer-per-rank simulation under an eager-send interpretation
// (sends and nonblocking postings never block; receives and waits
// block on data availability; collectives block until every
// participant arrives). If the simulation stalls before every rank
// drains, the trace deadlocks: the waits-for graph at the stall point
// names the cycle.
func lintProgress(traces []*trace.MemTrace) []Finding {
	n := len(traces)
	idx := make([]int, n)
	avail := map[chanKey]int{}   // posted sends not yet consumed
	arrived := map[collKey]int{} // collective arrivals
	inColl := make([]collKey, n) // the collective a rank has arrived at
	posted := make([]bool, n)
	// irecvKey maps a rank's pending irecv request to its channel.
	irecvKey := make([]map[uint64]chanKey, n)
	for r := range irecvKey {
		irecvKey[r] = map[uint64]chanKey{}
	}

	// canFire reports whether rank r's current record can complete,
	// and fires its side effects when it can.
	canFire := func(r int) bool {
		rec := traces[r].Records[idx[r]]
		if rec.Validate() != nil {
			return true // structurally bad records were already reported; skip
		}
		switch {
		case rec.Kind == trace.KindSend || rec.Kind == trace.KindIsend:
			avail[chanKey{comm: rec.Comm, src: int32(r), dst: rec.Peer, tag: rec.Tag}]++
			if rec.Kind == trace.KindIsend {
				// request completes trivially at its wait
				irecvKey[r][rec.Req] = chanKey{}
			}
			return true
		case rec.Kind == trace.KindRecv:
			key := chanKey{comm: rec.Comm, src: rec.Peer, dst: int32(r), tag: rec.Tag}
			if avail[key] > 0 {
				avail[key]--
				return true
			}
			return false
		case rec.Kind == trace.KindIrecv:
			irecvKey[r][rec.Req] = chanKey{comm: rec.Comm, src: rec.Peer, dst: int32(r), tag: rec.Tag}
			return true
		case rec.Kind.IsCompletion():
			key, ok := irecvKey[r][rec.Req]
			if !ok {
				return true // dangling wait, already reported
			}
			if key == (chanKey{}) { // isend completion
				delete(irecvKey[r], rec.Req)
				return true
			}
			if avail[key] > 0 {
				avail[key]--
				delete(irecvKey[r], rec.Req)
				return true
			}
			return false
		case rec.Kind.IsCollective():
			key := collKey{comm: rec.Comm, seq: rec.Seq}
			if !posted[r] {
				posted[r] = true
				inColl[r] = key
				arrived[key]++
			}
			if arrived[key] >= int(rec.CommSize) {
				posted[r] = false
				return true
			}
			return false
		default: // init, finalize, marker
			return true
		}
	}

	for {
		progressed := false
		done := true
		for r := 0; r < n; r++ {
			for idx[r] < len(traces[r].Records) && canFire(r) {
				idx[r]++
				progressed = true
			}
			if idx[r] < len(traces[r].Records) {
				done = false
			}
		}
		if done {
			return nil
		}
		if !progressed {
			break
		}
	}

	// Stalled: diagnose via the waits-for graph.
	waitsOn := make([][]int, n)
	describe := make([]string, n)
	stuck := make([]bool, n)
	for r := 0; r < n; r++ {
		if idx[r] >= len(traces[r].Records) {
			continue
		}
		stuck[r] = true
		rec := traces[r].Records[idx[r]]
		switch {
		case rec.Kind == trace.KindRecv || rec.Kind.IsCompletion():
			peer := rec.Peer
			if rec.Kind.IsCompletion() {
				if key, ok := irecvKey[r][rec.Req]; ok {
					peer = key.src
				}
			}
			describe[r] = fmt.Sprintf("%s from rank %d (tag %d)", rec.Kind, peer, rec.Tag)
			if int(peer) >= 0 && int(peer) < n {
				waitsOn[r] = append(waitsOn[r], int(peer))
			}
		case rec.Kind.IsCollective():
			describe[r] = fmt.Sprintf("%s comm %d seq %d (%d/%d arrived)", rec.Kind, rec.Comm, rec.Seq, arrived[collKey{comm: rec.Comm, seq: rec.Seq}], rec.CommSize)
			for p := 0; p < n; p++ {
				if p != r && (!posted[p] || inColl[p] != collKey{comm: rec.Comm, seq: rec.Seq}) {
					waitsOn[r] = append(waitsOn[r], p)
				}
			}
		default:
			describe[r] = rec.Kind.String()
		}
	}

	// Find a waits-for cycle among stuck ranks.
	cycle := findCycle(waitsOn, stuck)
	var out []Finding
	for r := 0; r < n; r++ {
		if !stuck[r] {
			continue
		}
		msg := fmt.Sprintf("stalled at %s", describe[r])
		if len(cycle) > 0 && cycle[r] {
			msg = fmt.Sprintf("waits-for cycle: stalled at %s", describe[r])
		}
		out = append(out, Finding{Class: LintDeadlock, Rank: r, Event: int64(idx[r]), Message: msg})
	}
	return out
}

// findCycle looks for a cycle in the waits-for digraph restricted to
// stuck ranks; it returns the membership set of the first cycle found
// (nil if none).
func findCycle(adj [][]int, stuck []bool) map[int]bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(adj))
	parent := make([]int, len(adj))
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt, cycleTo = -1, -1
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range adj[u] {
			if !stuck[v] {
				continue
			}
			if color[v] == gray {
				cycleAt, cycleTo = u, v
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for u := range adj {
		if stuck[u] && color[u] == white && dfs(u) {
			members := map[int]bool{cycleTo: true}
			for x := cycleAt; x != -1 && x != cycleTo; x = parent[x] {
				members[x] = true
			}
			return members
		}
	}
	return nil
}

// LintGraph structurally checks a built graph: local edges must have
// non-negative weights (a negative weight is a non-monotone local
// interval) and the digraph must be acyclic (a cycle means the trace
// cannot describe any real execution; traversal would not terminate).
// Only edge endpoints are visited: a node without edges lies on no
// cycle.
func LintGraph(g *core.Graph) []Finding {
	var out []Finding
	nodes := map[core.NodeRef]int{}
	for _, e := range g.Edges() {
		if e.Weight < 0 {
			out = append(out, Finding{
				Class: LintNegativeEdge,
				Rank:  e.From.Rank,
				Event: e.From.Event,
				Message: fmt.Sprintf("%s edge %s -> %s has negative weight %d (%s)",
					e.Kind, e.From, e.To, e.Weight, e.Label),
			})
		}
		if _, ok := nodes[e.From]; !ok {
			nodes[e.From] = 0
		}
		if _, ok := nodes[e.To]; !ok {
			nodes[e.To] = 0
		}
	}
	// Kahn's algorithm: nodes left over after peeling zero-indegree
	// nodes lie on (or downstream of) a cycle.
	indeg := nodes
	succ := map[core.NodeRef][]core.NodeRef{}
	for _, e := range g.Edges() {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	queue := make([]core.NodeRef, 0, len(indeg))
	//mpg:lint-ignore detreach Kahn's peel set is independent of seeding order; cycle members are sorted before output
	for ref, d := range indeg {
		if d == 0 {
			queue = append(queue, ref)
		}
	}
	removed := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, v := range succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if removed < len(indeg) {
		var members []string
		for ref, d := range indeg {
			if d > 0 {
				members = append(members, ref.String())
			}
		}
		sort.Strings(members)
		if len(members) > 6 {
			members = append(members[:6], "...")
		}
		out = append(out, Finding{
			Class:   LintGraphCycle,
			Rank:    -1,
			Event:   -1,
			Message: fmt.Sprintf("graph has a cycle through %d nodes (%v)", len(indeg)-removed, members),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Event < out[j].Event
	})
	return out
}

// LintSet drains a trace.Set into memory and lints it.
func LintSet(set *trace.Set) ([]Finding, error) {
	traces := make([]*trace.MemTrace, set.NRanks())
	for i := 0; i < set.NRanks(); i++ {
		mt, err := trace.ReadAll(set.Rank(i))
		if err != nil {
			return nil, err
		}
		traces[i] = mt
	}
	return LintTraces(traces), nil
}
