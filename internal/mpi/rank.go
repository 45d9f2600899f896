package mpi

import (
	"fmt"

	"mpgraph/internal/trace"
)

// Rank is a program's handle to the runtime: rank identity, virtual
// compute time, and the MPI-1 operation subset. All point-to-point and
// collective methods are available both on the world communicator
// (directly on Rank, for convenience) and on sub-communicators via
// Comm. Methods panic on misuse (invalid ranks, double waits); model
// misuse is a program bug, not a runtime condition.
type Rank struct {
	world *World
	proc  *proc
	comm  *Comm // world communicator
}

// init records the MPI_Init event and builds the world communicator.
func (r *Rank) init() {
	r.comm = &Comm{rank: r, id: 0, members: r.world.worldMembers, myIdx: r.proc.rank}
	t0 := r.proc.now
	r.proc.now += r.world.m.RecvOverhead() + r.world.m.OpNoise(r.proc.rank)
	r.record(trace.Record{Kind: trace.KindInit, Begin: t0, End: r.proc.now,
		Peer: trace.NoRank, Root: trace.NoRank})
	r.world.yield(r.proc)
}

// finalize records the MPI_Finalize event; it does not synchronize
// (the paper reads per-rank completion off each rank's final node).
func (r *Rank) finalize() {
	t0 := r.proc.now
	r.proc.now += r.world.m.RecvOverhead() + r.world.m.OpNoise(r.proc.rank)
	r.record(trace.Record{Kind: trace.KindFinalize, Begin: t0, End: r.proc.now,
		Peer: trace.NoRank, Root: trace.NoRank})
}

// record stamps a trace record with local-clock times and emits it.
func (r *Rank) record(rec trace.Record) {
	m := r.world.m
	rec.Begin = m.LocalClock(r.proc.rank, rec.Begin)
	rec.End = m.LocalClock(r.proc.rank, rec.End)
	if err := r.proc.tracer.add(rec); err != nil {
		panic(fmt.Sprintf("mpi: rank %d trace write failed: %v", r.proc.rank, err))
	}
	r.world.stats.Events++
}

// Rank returns this process's world rank.
func (r *Rank) Rank() int { return r.proc.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.m.NRanks() }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.comm }

// Now returns the rank's current global virtual time. Programs may use
// it for instrumentation; it never appears in traces (traces carry the
// distorted local clock).
func (r *Rank) Now() int64 { return r.proc.now }

// Compute advances virtual time by w cycles of local work plus
// whatever OS noise the machine model injects over that interval.
func (r *Rank) Compute(w int64) {
	if w < 0 {
		panic("mpi: negative compute time")
	}
	p := r.proc
	scaled := r.world.m.ScaleCompute(p.rank, w)
	p.now += scaled + r.world.m.ComputeNoise(p.rank, scaled)
	r.world.yield(p)
}

// Marker records a zero-duration region annotation with the given id.
func (r *Rank) Marker(region int32) {
	r.record(trace.Record{Kind: trace.KindMarker, Begin: r.proc.now, End: r.proc.now,
		Tag: region, Peer: trace.NoRank, Root: trace.NoRank})
}

// Send is MPI_Send on the world communicator.
func (r *Rank) Send(dst, tag int, bytes int64) { r.comm.Send(dst, tag, bytes) }

// Ssend is MPI_Ssend (always synchronous) on the world communicator.
func (r *Rank) Ssend(dst, tag int, bytes int64) { r.comm.Ssend(dst, tag, bytes) }

// Bsend is MPI_Bsend (always buffered) on the world communicator.
func (r *Rank) Bsend(dst, tag int, bytes int64) { r.comm.Bsend(dst, tag, bytes) }

// Recv is MPI_Recv on the world communicator; it returns the received
// payload size.
func (r *Rank) Recv(src, tag int) int64 { return r.comm.Recv(src, tag) }

// RecvAny is MPI_Recv with MPI_ANY_SOURCE on the world communicator;
// it returns the resolved source rank and payload size.
func (r *Rank) RecvAny(tag int) (src int, bytes int64) { return r.comm.RecvAny(tag) }

// Isend is MPI_Isend on the world communicator.
func (r *Rank) Isend(dst, tag int, bytes int64) *Request { return r.comm.Isend(dst, tag, bytes) }

// Irecv is MPI_Irecv on the world communicator.
func (r *Rank) Irecv(src, tag int) *Request { return r.comm.Irecv(src, tag) }

// Wait is MPI_Wait.
func (r *Rank) Wait(req *Request) { r.waitInner([]*Request{req}, trace.KindWait) }

// Waitall is MPI_Waitall.
func (r *Rank) Waitall(reqs ...*Request) { r.waitInner(reqs, trace.KindWaitall) }

// Sendrecv is MPI_Sendrecv on the world communicator: a combined
// nonblocking send and receive completed together. It returns the
// received payload size.
func (r *Rank) Sendrecv(dst, sendTag int, bytes int64, src, recvTag int) int64 {
	return r.comm.Sendrecv(dst, sendTag, bytes, src, recvTag)
}

// Barrier is MPI_Barrier on the world communicator.
func (r *Rank) Barrier() { r.comm.Barrier() }

// Bcast is MPI_Bcast on the world communicator.
func (r *Rank) Bcast(root int, bytes int64) { r.comm.Bcast(root, bytes) }

// Reduce is MPI_Reduce on the world communicator.
func (r *Rank) Reduce(root int, bytes int64) { r.comm.Reduce(root, bytes) }

// Allreduce is MPI_Allreduce on the world communicator.
func (r *Rank) Allreduce(bytes int64) { r.comm.Allreduce(bytes) }

// Gather is MPI_Gather on the world communicator.
func (r *Rank) Gather(root int, bytes int64) { r.comm.Gather(root, bytes) }

// Allgather is MPI_Allgather on the world communicator.
func (r *Rank) Allgather(bytes int64) { r.comm.Allgather(bytes) }

// Scatter is MPI_Scatter on the world communicator.
func (r *Rank) Scatter(root int, bytes int64) { r.comm.Scatter(root, bytes) }

// Alltoall is MPI_Alltoall on the world communicator.
func (r *Rank) Alltoall(bytes int64) { r.comm.Alltoall(bytes) }

// Scan is MPI_Scan on the world communicator.
func (r *Rank) Scan(bytes int64) { r.comm.Scan(bytes) }

// waitInner implements Wait and Waitall: requests are completed in
// order, all records share the call's begin time, one record is
// emitted per request (the convention the tracing layer uses for
// Waitall; see trace.KindWaitall).
func (r *Rank) waitInner(reqs []*Request, kind trace.Kind) {
	if len(reqs) == 0 {
		return
	}
	p := r.proc
	w := r.world
	t0 := p.now
	p.now += w.m.RecvOverhead() + w.m.OpNoise(p.rank)
	w.yield(p)
	for _, req := range reqs {
		if req == nil {
			panic("mpi: wait on nil request")
		}
		if req.waited {
			panic("mpi: request waited on twice")
		}
		if req.owner != p.rank {
			panic("mpi: wait on another rank's request")
		}
		req.waited = true
		c, ok := req.completion()
		if !ok {
			// Not yet matched: park until the peer posts.
			req.x.setWaiter(req.isSend, p)
			w.block(p, req.blockedOn())
			// Resumed by the matcher with now >= completion.
		} else if c > p.now {
			p.now = c
		}
	}
	// One record per request (the Waitall convention, see
	// trace.KindWaitall): the first carries the call's interval, the
	// rest are zero-duration at the completion time so that per-rank
	// records never overlap.
	begin := t0
	for _, req := range reqs {
		r.record(trace.Record{
			Kind: kind, Begin: begin, End: p.now,
			Peer: trace.NoRank, Root: trace.NoRank, Req: req.id,
		})
		begin = p.now
	}
}

// blockedOn describes a wait on the request for deadlock reports.
func (q *Request) blockedOn() blockedOn {
	kind := trace.KindIrecv
	if q.isSend {
		kind = trace.KindIsend
	}
	return blockedOn{kind: kind, peer: q.peerWorld(), tag: int64(q.x.tag)}
}

// Request is a nonblocking operation handle returned by Isend/Irecv.
type Request struct {
	id     uint64
	owner  int
	isSend bool
	x      *xfer
	waited bool
}

// completion returns the operation's completion time if it is known.
func (q *Request) completion() (int64, bool) {
	if q.isSend {
		return q.x.cS, q.x.cSValid
	}
	return q.x.cR, q.x.cRValid
}

// Bytes returns the transfer's payload size; for receive requests it is
// only meaningful after Wait.
func (q *Request) Bytes() int64 { return q.x.bytes }

func (q *Request) peerWorld() int32 {
	if q.isSend {
		return q.x.dst
	}
	return q.x.src
}
