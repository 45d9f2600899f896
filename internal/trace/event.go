// Package trace defines the event-trace model of the analyzer: the
// records a PMPI-style tracing layer emits for each rank, a compact
// binary codec, a buffered writer that mirrors the paper's
// flush-on-full memory-resident buffer (Section 4), and a streaming
// reader that lets the graph builder process arbitrarily large traces
// in bounded memory (Sections 4.2, 6).
//
// Timestamps are expressed in cycles on the *local* clock of the rank
// that recorded them. Local clocks may disagree across ranks (offset
// and drift); nothing in this package, and nothing downstream, ever
// compares timestamps from different ranks (Section 4.1 of the paper).
package trace

import "fmt"

// Kind identifies the message-passing primitive (or pseudo-event) a
// record describes. The set covers the MPI-1 send/receive subset the
// paper treats (Section 3) plus the collectives of Section 3.2 and a
// Marker pseudo-event for region annotation.
type Kind uint8

// Event kinds. The numeric values are part of the on-disk format;
// append only.
const (
	// KindInvalid is the zero Kind and never appears in valid traces.
	KindInvalid Kind = iota
	// KindInit marks MPI_Init: the first event on every rank.
	KindInit
	// KindFinalize marks MPI_Finalize: the last event on every rank.
	KindFinalize
	// KindSend is a blocking point-to-point send (MPI_Send).
	KindSend
	// KindRecv is a blocking point-to-point receive (MPI_Recv).
	KindRecv
	// KindIsend is a nonblocking send initiation (MPI_Isend).
	KindIsend
	// KindIrecv is a nonblocking receive initiation (MPI_Irecv).
	KindIrecv
	// KindWait is a blocking completion of one request (MPI_Wait).
	KindWait
	// KindWaitall is one request completion recorded on behalf of an
	// MPI_Waitall; the tracing layer emits one KindWaitall record per
	// completed request. The first record carries the call's interval
	// and the rest are zero-duration at the completion time, so that
	// per-rank records never overlap.
	KindWaitall
	// KindBarrier is MPI_Barrier.
	KindBarrier
	// KindBcast is MPI_Bcast (root field holds the root rank).
	KindBcast
	// KindReduce is MPI_Reduce (root field holds the root rank).
	KindReduce
	// KindAllreduce is MPI_Allreduce.
	KindAllreduce
	// KindGather is MPI_Gather (root field holds the root rank).
	KindGather
	// KindAllgather is MPI_Allgather.
	KindAllgather
	// KindScatter is MPI_Scatter (root field holds the root rank).
	KindScatter
	// KindAlltoall is MPI_Alltoall.
	KindAlltoall
	// KindCommSplit is MPI_Comm_split/dup: communicator creation. It
	// synchronizes the members of the *parent* communicator (whose id
	// is in Comm) and is modeled like a barrier on that group.
	KindCommSplit
	// KindMarker is a zero-duration region annotation emitted by the
	// application (not an MPI primitive); Tag carries the region id.
	KindMarker
	// KindScan is MPI_Scan: an inclusive prefix reduction — rank i's
	// result depends on ranks 0..i only, so perturbations propagate
	// forward along the rank order rather than to everyone.
	KindScan

	kindCount // number of kinds; keep last
)

var kindNames = [...]string{
	KindInvalid:   "invalid",
	KindInit:      "init",
	KindFinalize:  "finalize",
	KindSend:      "send",
	KindRecv:      "recv",
	KindIsend:     "isend",
	KindIrecv:     "irecv",
	KindWait:      "wait",
	KindWaitall:   "waitall",
	KindBarrier:   "barrier",
	KindBcast:     "bcast",
	KindReduce:    "reduce",
	KindAllreduce: "allreduce",
	KindGather:    "gather",
	KindAllgather: "allgather",
	KindScatter:   "scatter",
	KindAlltoall:  "alltoall",
	KindScan:      "scan",
	KindCommSplit: "commsplit",
	KindMarker:    "marker",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined kind other than KindInvalid.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindCount }

// IsPointToPoint reports whether the kind is a pairwise primitive
// (Section 3.1).
func (k Kind) IsPointToPoint() bool {
	switch k {
	case KindSend, KindRecv, KindIsend, KindIrecv:
		return true
	}
	return false
}

// IsCollective reports whether the kind is a collective primitive
// (Section 3.2).
func (k Kind) IsCollective() bool {
	switch k {
	case KindBarrier, KindBcast, KindReduce, KindAllreduce,
		KindGather, KindAllgather, KindScatter, KindAlltoall,
		KindScan, KindCommSplit:
		return true
	}
	return false
}

// IsNonblocking reports whether the primitive returns immediately
// (Section 3.1.3).
func (k Kind) IsNonblocking() bool { return k == KindIsend || k == KindIrecv }

// IsCompletion reports whether the kind completes a previously posted
// nonblocking request.
func (k Kind) IsCompletion() bool { return k == KindWait || k == KindWaitall }

// IsRooted reports whether the collective has a distinguished root rank
// whose role matters for the graph model (Reduce/Bcast/Gather/Scatter).
//
//mpg:hotpath
func (k Kind) IsRooted() bool {
	switch k {
	case KindBcast, KindReduce, KindGather, KindScatter:
		return true
	}
	return false
}

// NoRank is the Peer/Root value used when the field does not apply.
const NoRank int32 = -1

// Record is one traced event on one rank: the local begin and end
// timestamps plus the metadata needed to match the event with its
// counterparts on other ranks (Section 4). A Record corresponds to the
// paper's pair of start/end subevents.
type Record struct {
	// Kind identifies the primitive.
	Kind Kind
	// Begin and End are local-clock timestamps (cycles) of entry to and
	// exit from the primitive. End >= Begin always.
	Begin, End int64
	// Peer is the remote rank for point-to-point events, else NoRank.
	Peer int32
	// Tag is the message tag for point-to-point events, the region id
	// for markers, and zero otherwise.
	Tag int32
	// Bytes is the message payload size for point-to-point events and
	// the per-rank contribution size for collectives.
	Bytes int64
	// Req is the nonblocking request id (per-rank, monotonically
	// increasing from 1) linking Isend/Irecv records to their Wait
	// records; zero for blocking events.
	Req uint64
	// Comm is the communicator id (0 = COMM_WORLD).
	Comm int32
	// Seq is the per-communicator collective sequence number used to
	// match collective events across ranks; zero for non-collectives.
	Seq int64
	// Root is the root rank for rooted collectives, else NoRank.
	// Peer and Root are always WORLD ranks: the tracing layer
	// translates communicator-relative ranks before recording, so the
	// graph builder never needs communicator membership tables. The
	// Comm id still scopes matching (tags may repeat across
	// communicators).
	Root int32
	// CommSize is the number of participants in the event's
	// communicator for collective events (the builder must know how
	// many counterpart records to expect); zero otherwise.
	CommSize int32
}

// Duration returns the event's traced duration in cycles.
func (r *Record) Duration() int64 { return r.End - r.Begin }

// Validate checks the internal consistency of a single record (field
// applicability and ordering). It does not and cannot check cross-rank
// properties; the graph builder does that during matching.
func (r *Record) Validate() error {
	if !r.Kind.Valid() {
		return fmt.Errorf("trace: invalid kind %d", uint8(r.Kind))
	}
	if r.End < r.Begin {
		return fmt.Errorf("trace: %s record with End %d < Begin %d", r.Kind, r.End, r.Begin)
	}
	if r.Duration() < 0 {
		return fmt.Errorf("trace: %s record span [%d,%d] overflows int64", r.Kind, r.Begin, r.End)
	}
	if r.Kind.IsPointToPoint() {
		if r.Peer < 0 {
			return fmt.Errorf("trace: %s record without peer", r.Kind)
		}
		if r.Bytes < 0 {
			return fmt.Errorf("trace: %s record with negative size %d", r.Kind, r.Bytes)
		}
	}
	if r.Kind.IsNonblocking() && r.Req == 0 {
		return fmt.Errorf("trace: %s record without request id", r.Kind)
	}
	if r.Kind.IsCompletion() && r.Req == 0 {
		return fmt.Errorf("trace: %s record without request id", r.Kind)
	}
	if r.Kind.IsCollective() && r.Seq <= 0 {
		return fmt.Errorf("trace: %s record without collective sequence", r.Kind)
	}
	if r.Kind.IsCollective() && r.CommSize <= 0 {
		return fmt.Errorf("trace: %s record without communicator size", r.Kind)
	}
	if r.Kind.IsRooted() && r.Root < 0 {
		return fmt.Errorf("trace: %s record without root", r.Kind)
	}
	return nil
}

// String renders the record compactly for debugging and the text codec.
func (r Record) String() string {
	return fmt.Sprintf("%s [%d,%d] peer=%d tag=%d bytes=%d req=%d comm=%d seq=%d root=%d",
		r.Kind, r.Begin, r.End, r.Peer, r.Tag, r.Bytes, r.Req, r.Comm, r.Seq, r.Root)
}

// Header describes one rank's trace stream. It is written once at the
// start of the stream.
type Header struct {
	// Rank is the recording rank.
	Rank int
	// NRanks is the world size of the traced run.
	NRanks int
	// ClockHz is the nominal frequency of the local clock; informative
	// only (the analyzer works in cycles).
	ClockHz int64
	// Meta carries free-form key/value annotations (platform name,
	// workload parameters, ...). Keys and values must not contain
	// newlines.
	Meta map[string]string
}

// Validate checks the header fields.
func (h Header) Validate() error {
	if h.NRanks <= 0 {
		return fmt.Errorf("trace: header with non-positive world size %d", h.NRanks)
	}
	if h.Rank < 0 || h.Rank >= h.NRanks {
		return fmt.Errorf("trace: header rank %d outside [0,%d)", h.Rank, h.NRanks)
	}
	return nil
}
