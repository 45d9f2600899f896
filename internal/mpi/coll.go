package mpi

import (
	"fmt"
	"sort"

	"mpgraph/internal/trace"
)

// collKey identifies one collective operation instance: all members of
// a communicator issue their n-th collective against the same key.
type collKey struct {
	comm int32
	seq  int64
}

// collSync gathers the members of one collective operation. The last
// rank to arrive computes everyone's completion time and wakes the
// rest.
type collSync struct {
	kind     trace.Kind
	bytes    int64
	rootIdx  int
	arrivals []int64
	arrived  []bool
	procs    []*proc
	count    int

	// Comm_split payload.
	colors, keys []int
	splitOut     []splitResult
}

type splitResult struct {
	id      int32
	members []int
	myIdx   int
}

// collective runs one collective operation on the communicator and
// returns this rank's communicator index within it (used by Split).
func (c *Comm) collective(kind trace.Kind, bytes int64, rootIdx int, color, key int) *collSync {
	r := c.rank
	p := r.proc
	w := r.world
	t0 := p.now
	p.now += w.m.SendOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)

	c.seq++
	ck := collKey{comm: c.id, seq: c.seq}
	cs := w.colls[ck]
	if cs == nil {
		n := len(c.members)
		cs = &collSync{
			kind: kind, bytes: bytes, rootIdx: rootIdx,
			arrivals: make([]int64, n),
			arrived:  make([]bool, n),
			procs:    make([]*proc, n),
			colors:   make([]int, n),
			keys:     make([]int, n),
		}
		w.colls[ck] = cs
	}
	if cs.kind != kind || cs.rootIdx != rootIdx {
		panic(fmt.Sprintf("mpi: collective mismatch on comm %d seq %d: %s/root=%d vs %s/root=%d",
			c.id, c.seq, cs.kind, cs.rootIdx, kind, rootIdx))
	}
	idx := c.myIdx
	if cs.arrived[idx] {
		panic(fmt.Sprintf("mpi: rank %d arrived twice at comm %d seq %d", p.rank, c.id, c.seq))
	}
	cs.arrived[idx] = true
	cs.arrivals[idx] = p.now
	cs.colors[idx] = color
	cs.keys[idx] = key
	cs.count++

	if cs.count == len(c.members) {
		times := w.collTimes(kind, c.members, cs.arrivals, cs.bytes, cs.rootIdx)
		if kind == trace.KindCommSplit {
			cs.splitOut = w.computeSplit(c.members, cs.colors, cs.keys)
		}
		for i, q := range cs.procs {
			if q != nil {
				w.unblock(q, times[i])
			}
		}
		if times[idx] > p.now {
			p.now = times[idx]
		}
		delete(w.colls, ck)
		w.stats.Collectives++
	} else {
		cs.procs[idx] = p
		w.block(p, blockedOn{kind: kind, comm: c.id, seq: c.seq})
	}

	rootWorld := trace.NoRank
	if kind.IsRooted() {
		rootWorld = int32(c.members[rootIdx])
	}
	r.record(trace.Record{
		Kind: kind, Begin: t0, End: p.now,
		Peer: trace.NoRank, Bytes: bytes, Comm: c.id, Seq: c.seq,
		Root: rootWorld, CommSize: int32(len(c.members)),
	})
	return cs
}

func (c *Comm) checkRoot(root int) int {
	if root < 0 || root >= len(c.members) {
		panic(fmt.Sprintf("mpi: root %d outside communicator of size %d", root, len(c.members)))
	}
	return root
}

// Barrier is MPI_Barrier.
func (c *Comm) Barrier() { c.collective(trace.KindBarrier, 0, 0, 0, 0) }

// Bcast is MPI_Bcast of bytes from root (a communicator rank).
func (c *Comm) Bcast(root int, bytes int64) {
	c.collective(trace.KindBcast, bytes, c.checkRoot(root), 0, 0)
}

// Reduce is MPI_Reduce of bytes per rank to root.
func (c *Comm) Reduce(root int, bytes int64) {
	c.collective(trace.KindReduce, bytes, c.checkRoot(root), 0, 0)
}

// Allreduce is MPI_Allreduce of bytes per rank.
func (c *Comm) Allreduce(bytes int64) { c.collective(trace.KindAllreduce, bytes, 0, 0, 0) }

// Gather is MPI_Gather of bytes per rank to root.
func (c *Comm) Gather(root int, bytes int64) {
	c.collective(trace.KindGather, bytes, c.checkRoot(root), 0, 0)
}

// Allgather is MPI_Allgather of bytes per rank.
func (c *Comm) Allgather(bytes int64) { c.collective(trace.KindAllgather, bytes, 0, 0, 0) }

// Scatter is MPI_Scatter of bytes per rank from root.
func (c *Comm) Scatter(root int, bytes int64) {
	c.collective(trace.KindScatter, bytes, c.checkRoot(root), 0, 0)
}

// Alltoall is MPI_Alltoall of bytes per pair.
func (c *Comm) Alltoall(bytes int64) { c.collective(trace.KindAlltoall, bytes, 0, 0, 0) }

// Scan is MPI_Scan: inclusive prefix reduction of bytes per rank.
func (c *Comm) Scan(bytes int64) { c.collective(trace.KindScan, bytes, 0, 0, 0) }

// Split is MPI_Comm_split: members with equal non-negative color form
// a new communicator, ordered by (key, world rank). A negative color
// returns nil (MPI_UNDEFINED). Split synchronizes the parent
// communicator and appears in traces as a KindCommSplit collective.
func (c *Comm) Split(color, key int) *Comm {
	cs := c.collective(trace.KindCommSplit, 0, 0, color, key)
	out := cs.splitOut[c.myIdx]
	if out.members == nil {
		return nil
	}
	return &Comm{rank: c.rank, id: out.id, members: out.members, myIdx: out.myIdx}
}

// Dup is MPI_Comm_dup: a new communicator with the same group.
func (c *Comm) Dup() *Comm { return c.Split(0, c.myIdx) }

// computeSplit assigns new communicator ids and membership for a
// Comm_split. Groups are processed in ascending color order so that id
// assignment is deterministic.
func (w *World) computeSplit(members []int, colors, keys []int) []splitResult {
	out := make([]splitResult, len(members))
	groups := map[int][]int{} // color -> member indices
	var colorList []int
	for i, col := range colors {
		if col < 0 {
			continue
		}
		if _, ok := groups[col]; !ok {
			colorList = append(colorList, col)
		}
		groups[col] = append(groups[col], i)
	}
	sort.Ints(colorList)
	for _, col := range colorList {
		idxs := groups[col]
		// Order by (key, world rank).
		sort.Slice(idxs, func(a, b int) bool {
			ia, ib := idxs[a], idxs[b]
			if keys[ia] != keys[ib] {
				return keys[ia] < keys[ib]
			}
			return members[ia] < members[ib]
		})
		id := w.nextCommID
		w.nextCommID++
		world := make([]int, len(idxs))
		for pos, i := range idxs {
			world[pos] = members[i]
		}
		for pos, i := range idxs {
			out[i] = splitResult{id: id, members: world, myIdx: pos}
		}
	}
	return out
}

// collTimes computes each member's completion time for a collective,
// given arrival times (indexed by communicator rank). The algorithms
// mirror standard MPI implementations: dissemination for the
// symmetric collectives, binomial trees for the rooted ones, linear
// exchange for gather/scatter. Every message samples latency, every
// member samples one unit of OS noise at entry; this is the machine's
// "ground truth" against which the graph model's log(p) approximation
// (paper Fig. 4) is an approximation.
func (w *World) collTimes(kind trace.Kind, members []int, arrivals []int64, bytes int64, rootIdx int) []int64 {
	p := len(members)
	T := make([]int64, p)
	for i := range T {
		T[i] = arrivals[i] + w.m.OpNoise(members[i])
	}
	if p == 1 {
		return T
	}
	switch kind {
	case trace.KindBarrier, trace.KindCommSplit:
		w.dissemination(T, members, func(int) int64 { return 0 })
	case trace.KindAllreduce:
		w.dissemination(T, members, func(int) int64 { return bytes })
	case trace.KindAllgather:
		w.dissemination(T, members, func(round int) int64 { return bytes << uint(round) })
	case trace.KindAlltoall:
		rounds := ceilLog2(p)
		per := bytes * int64(p) / int64(rounds)
		w.dissemination(T, members, func(int) int64 { return per })
	case trace.KindBcast:
		w.binomialDown(T, members, rootIdx, bytes)
	case trace.KindReduce:
		w.binomialUp(T, members, rootIdx, bytes)
	case trace.KindGather:
		w.linearGather(T, members, rootIdx, bytes)
	case trace.KindScatter:
		w.linearScatter(T, members, rootIdx, bytes)
	case trace.KindScan:
		w.prefixChain(T, members, bytes)
	default:
		panic(fmt.Sprintf("mpi: collTimes for non-collective kind %s", kind))
	}
	return T
}

// ceilLog2 returns ceil(log2(p)) for p >= 1.
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

// dissemination runs ceil(log2 p) synchronized exchange rounds: in
// round j, member i receives from member (i - 2^j) mod p.
func (w *World) dissemination(T []int64, members []int, roundBytes func(round int) int64) {
	p := len(T)
	rounds := ceilLog2(p)
	next := make([]int64, p)
	for j := 0; j < rounds; j++ {
		step := 1 << uint(j)
		ser := w.m.XferCycles(roundBytes(j))
		for i := 0; i < p; i++ {
			src := (i - step%p + p) % p
			arr := T[src] + ser + w.m.PathLatency(members[src], members[i])
			next[i] = max64(T[i], arr)
		}
		copy(T, next)
	}
}

// binomialDown is a binomial broadcast tree rooted at rootIdx.
func (w *World) binomialDown(T []int64, members []int, rootIdx int, bytes int64) {
	p := len(T)
	R := relabel(T, rootIdx)
	ser := w.m.XferCycles(bytes)
	for j := 0; (1 << uint(j)) < p; j++ {
		step := 1 << uint(j)
		for rel := 0; rel < step && rel+step < p; rel++ {
			child := rel + step
			s0 := R[rel]
			R[rel] = s0 + ser // sender occupied while serializing
			arr := s0 + ser + w.m.PathLatency(members[(rel+rootIdx)%p], members[(child+rootIdx)%p])
			R[child] = max64(R[child], arr)
		}
	}
	unrelabel(T, R, rootIdx)
}

// binomialUp is a binomial reduction tree toward rootIdx. Non-root
// members complete after injecting their contribution; ancestors wait
// for their children.
func (w *World) binomialUp(T []int64, members []int, rootIdx int, bytes int64) {
	p := len(T)
	R := relabel(T, rootIdx)
	ser := w.m.XferCycles(bytes)
	for j := 0; (1 << uint(j)) < p; j++ {
		step := 1 << uint(j)
		for rel := step; rel < p; rel += step << 1 {
			parent := rel - step
			s0 := R[rel]
			R[rel] = s0 + ser
			arr := s0 + ser + w.m.PathLatency(members[(rel+rootIdx)%p], members[(parent+rootIdx)%p])
			R[parent] = max64(R[parent], arr)
		}
	}
	unrelabel(T, R, rootIdx)
}

// linearGather has every non-root inject its block to the root, which
// drains arrivals in communicator-rank order.
func (w *World) linearGather(T []int64, members []int, rootIdx int, bytes int64) {
	p := len(T)
	ser := w.m.XferCycles(bytes)
	acc := T[rootIdx]
	for i := 0; i < p; i++ {
		if i == rootIdx {
			continue
		}
		arr := T[i] + w.m.PathLatency(members[i], members[rootIdx])
		acc = max64(acc, arr) + ser
		T[i] += ser // sender done after injection
	}
	T[rootIdx] = acc
}

// linearScatter has the root inject one block per member in
// communicator-rank order.
func (w *World) linearScatter(T []int64, members []int, rootIdx int, bytes int64) {
	p := len(T)
	ser := w.m.XferCycles(bytes)
	s := T[rootIdx]
	for i := 0; i < p; i++ {
		if i == rootIdx {
			continue
		}
		s += ser
		arr := s + w.m.PathLatency(members[rootIdx], members[i])
		T[i] = max64(T[i], arr)
	}
	T[rootIdx] = s
}

// prefixChain times MPI_Scan as the canonical linear prefix chain:
// member i completes after receiving member i−1's partial result.
func (w *World) prefixChain(T []int64, members []int, bytes int64) {
	ser := w.m.XferCycles(bytes)
	for i := 1; i < len(T); i++ {
		arr := T[i-1] + ser + w.m.PathLatency(members[i-1], members[i])
		T[i] = max64(T[i], arr)
	}
}

// relabel returns T reindexed so the root is position 0.
func relabel(T []int64, rootIdx int) []int64 {
	p := len(T)
	R := make([]int64, p)
	for i := 0; i < p; i++ {
		R[i] = T[(i+rootIdx)%p]
	}
	return R
}

// unrelabel writes R (root at 0) back into T (root at rootIdx).
func unrelabel(T, R []int64, rootIdx int) {
	p := len(T)
	for i := 0; i < p; i++ {
		T[(i+rootIdx)%p] = R[i]
	}
}
