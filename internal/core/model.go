// Package core implements the paper's contribution: construction of
// the message-passing graph from per-rank event traces and the
// propagation of simulated perturbations through it.
//
// Events are split into start/end subevents (graph nodes); local edges
// connect successive subevents on one rank, message edges connect
// matched subevents across ranks (Section 2). Matching uses execution
// order only — never cross-rank timestamps (Section 4.1): point-to-
// point events match through per-(comm,src,dst,tag) FIFO queues (MPI
// non-overtaking order), nonblocking operations link to their waits by
// request id, and collectives match by per-communicator sequence
// number.
//
// Perturbations are expressed as *delays*: each node v carries
// D(v) = t'(v) − t(v), the difference between its perturbed and traced
// times on its own rank's clock. Delays propagate along edges with
// max() merges (Section 3); because only delays ever cross rank
// boundaries, unsynchronized clocks are harmless. The builder streams
// records through bounded per-rank windows (Sections 4.2, 6), so trace
// size is limited by disk, not memory.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"mpgraph/internal/dist"
	"mpgraph/internal/obsv"
)

// PropagationMode selects how injected deltas combine with traced
// event durations.
type PropagationMode uint8

const (
	// PropagationAdditive treats every delta as additional delay on
	// top of the traced timings: D(v) = max over incoming edges of
	// (D(u) + δ). This is the model described in the paper's Sections
	// 4.2 and 6 ("the change is additively propagated through the
	// graph", "the max() operators ... modify the times of each node
	// based on the simulated perturbation deltas"), and the default.
	PropagationAdditive PropagationMode = iota
	// PropagationAnchored implements Eq. 1/Eq. 2 as literally printed:
	// perturbation paths are anchored at the event's *start*, so an
	// event's traced duration absorbs deltas smaller than itself
	// (e.g. t'_se = max(t_se, t_ss + δ_os1, t_ss + δ_λ1 + δ_t +
	// δ_os2 + δ_λ2)). Under zero inbound delay this reproduces the
	// printed equations exactly; it can let perturbed events complete
	// earlier than traced when modeled deltas undercut embedded waits.
	PropagationAnchored
)

// String returns the mode name.
func (m PropagationMode) String() string {
	switch m {
	case PropagationAdditive:
		return "additive"
	case PropagationAnchored:
		return "anchored"
	}
	return fmt.Sprintf("propagation(%d)", uint8(m))
}

// CollectiveMode selects the collective subgraph construction.
type CollectiveMode uint8

const (
	// CollectiveApprox is the paper's compact model (Fig. 4): each
	// participant contributes l_δ = Σ over ceil(log2 p) rounds of
	// (OS-noise + latency [+ bandwidth]) samples; the maximum of
	// (inbound delay + l_δ) over participants propagates to everyone.
	CollectiveApprox CollectiveMode = iota
	// CollectiveExplicit builds the actual communication pattern in
	// delay space: dissemination exchanges for the symmetric
	// collectives and binomial trees for the rooted ones — O(p log p)
	// edges, the alternative the paper calls correct but "not space or
	// time efficient".
	CollectiveExplicit
)

// String returns the mode name.
func (m CollectiveMode) String() string {
	switch m {
	case CollectiveApprox:
		return "approx"
	case CollectiveExplicit:
		return "explicit"
	}
	return fmt.Sprintf("collective(%d)", uint8(m))
}

// Model parameterizes the simulated perturbations (paper Section 5).
// Each field is a distribution so that both analytic families and
// empirical microbenchmark-derived distributions plug in uniformly; a
// nil distribution injects nothing.
type Model struct {
	// Seed drives all perturbation sampling. Identical seeds over
	// identical traces yield identical analyses.
	Seed uint64

	// OSNoise is sampled once per local edge (compute gaps between
	// events and event-internal start→end edges) and added as delay on
	// that edge; the paper's δ_os.
	OSNoise dist.Distribution
	// RankOSNoise, when non-nil, overrides OSNoise per rank (index =
	// world rank; nil entries fall back to OSNoise). This models
	// heterogeneous platforms — e.g. a single daemon-ridden node in an
	// otherwise quiet cluster.
	RankOSNoise []dist.Distribution
	// NoiseQuantum, when positive, makes compute-gap noise
	// length-dependent: a gap of w cycles draws ceil(w/NoiseQuantum)
	// OSNoise samples (FTQ-style periodic interference). Zero draws a
	// single sample per gap regardless of length. At most
	// MaxNoiseSamplesPerEdge samples are drawn per edge; beyond that
	// the expectation is extrapolated linearly.
	NoiseQuantum int64

	// MsgLatency is sampled once per message edge; the paper's δ_λ.
	MsgLatency dist.Distribution
	// PerByte is sampled once per message edge and multiplied by the
	// payload size; the paper's size-dependent δ_t(d).
	PerByte dist.Distribution

	// Propagation selects additive (default) or anchored combining.
	Propagation PropagationMode
	// Collectives selects the compact or explicit collective model.
	Collectives CollectiveMode
	// CollectiveBytes, when true, includes the PerByte term in
	// collective round contributions (scaled by the round's payload).
	CollectiveBytes bool

	// AllowNegative permits distributions with negative support
	// (the paper's future-work "what if the platform had less noise"
	// analysis, Section 7). The correctness checker still rejects any
	// perturbation that would reorder events (Section 4.3).
	AllowNegative bool
}

// MaxNoiseSamplesPerEdge bounds quantized noise sampling per local
// edge; longer gaps extrapolate the sampled mean.
const MaxNoiseSamplesPerEdge = 4096

// Clone returns an independent copy of the model, for per-task model
// instantiation in parallel replays: callers that vary a field (most
// commonly Seed, one derived seed per Monte Carlo trial) must clone
// first so concurrent replays never share a mutated Model. The
// RankOSNoise slice is copied; the Distribution values themselves are
// shared, which is safe because Distribution implementations are pure
// (all randomness flows through the per-analysis RNG, never through
// distribution-internal state). Clone of a nil model yields the zero
// model.
func (m *Model) Clone() *Model {
	if m == nil {
		return &Model{}
	}
	c := *m
	if m.RankOSNoise != nil {
		c.RankOSNoise = append([]dist.Distribution(nil), m.RankOSNoise...)
	}
	return &c
}

// Zero reports whether the model injects no perturbation at all.
func (m *Model) Zero() bool {
	for _, d := range m.RankOSNoise {
		if d != nil {
			return false
		}
	}
	return m.OSNoise == nil && m.MsgLatency == nil && m.PerByte == nil
}

// Options tunes the analyzer machinery (not the perturbation model).
type Options struct {
	// MaxWindow bounds the number of simultaneously pending unmatched
	// events; exceeding it aborts the analysis with an error. Zero
	// means unbounded (the high-water mark is still reported).
	MaxWindow int
	// Burst is the number of records processed per rank per scheduling
	// turn; smaller values keep rank progress balanced and windows
	// small. Default 64.
	Burst int
	// Interval, when non-nil, is invoked once per resolved event end
	// subevent with the timing detail a per-rank timeline needs: the
	// traced interval, the delays at both subevents, and — when a
	// remote path won the completion merge — the excess over the local
	// path (the wait) with its wait-state classification. The
	// (OrigEnd, EndDelay) series is the raw data behind "regions where
	// perturbations are absorbed or fully propagated" (§4.2). Points
	// arrive in per-rank order but interleaved across ranks. The hook
	// observes only: no sample is drawn and no delay changes, so
	// instrumented runs are byte-identical to uninstrumented ones.
	Interval func(IntervalPoint)
	// RecordCritPath records the winning predecessor of every end
	// merge so Result.CritPath can name the edges behind the makespan
	// delay. Recording never alters propagated delays (no sample is
	// drawn and no comparison changes). It costs the critical path
	// plus the window in memory in Analyze, and O(events) in
	// ReplayCompiled.
	RecordCritPath bool
	// Metrics, when non-nil, receives engine counters (events, edges,
	// matches, samples drawn, window high-water) and the analyze phase
	// timer. Metrics are out-of-band: attaching a registry changes no
	// analysis result.
	Metrics *obsv.Registry
}

// WaitState classifies the blocked portion of a completed event: which
// remote path held the event's end subevent past its own local path.
type WaitState uint8

const (
	// WaitNone marks events whose own local path dominated (no remote
	// wait; the event absorbed any inbound perturbation).
	WaitNone WaitState = iota
	// WaitLateSender marks receive-side completions (blocking Recv or a
	// wait on an Irecv) held by the transfer: the data left the sender
	// too late for the receiver's local path to hide it.
	WaitLateSender
	// WaitLateReceiver marks send-side completions (blocking Send or a
	// wait on an Isend) held by the acknowledgment path: the receiver
	// completed the transfer later than the sender's local path.
	WaitLateReceiver
	// WaitCollective marks collective completions held by another
	// participant's inbound delay (collective imbalance).
	WaitCollective
)

// String returns the wait-state name.
func (s WaitState) String() string {
	switch s {
	case WaitNone:
		return "none"
	case WaitLateSender:
		return "late-sender"
	case WaitLateReceiver:
		return "late-receiver"
	case WaitCollective:
		return "collective"
	}
	return fmt.Sprintf("wait(%d)", uint8(s))
}

// IntervalPoint is one event's timeline observation: enough to place
// the event's perturbed interval on its rank's track and split it into
// an executing part and a waiting part.
type IntervalPoint struct {
	// Rank is the world rank.
	Rank int
	// Event is the record index on the rank.
	Event int64
	// Kind is the event kind.
	Kind uint8
	// OrigBegin and OrigEnd are the traced local interval.
	OrigBegin, OrigEnd int64
	// StartDelay is D at the event's start subevent, EndDelay is D at
	// its end subevent (after any §4.3 order clamp). The perturbed
	// interval is [OrigBegin+StartDelay, OrigEnd+EndDelay].
	StartDelay, EndDelay float64
	// Wait is the excess of the winning remote path over the event's
	// local path (remote − local, exactly the amount mergeEnd adds to
	// RankResult.DelayInduced), zero when the local path won or the
	// event performed no merge. Per rank, the Waits accumulated in
	// point order sum bitwise to that rank's DelayInduced.
	Wait float64
	// State classifies Wait; WaitNone when Wait is zero.
	State WaitState
	// PeerRank/PeerEvent name the sending rank's posting event for
	// receive-side completions (the message edge the data traveled);
	// PeerRank is −1 for every other event.
	PeerRank  int
	PeerEvent int64
	// Region is the rank's current marker region (−1 before the first
	// marker).
	Region int32
}

// sampler owns the deterministic perturbation streams: one OS-noise
// stream per rank and one shared message stream, mirroring the
// structure of the machine model so that per-rank noise is independent
// of messaging order on other ranks.
type sampler struct {
	model   *Model
	rankRNG []*dist.RNG
	msgRNG  *dist.RNG

	// The model's draw laws, resolved once per run by bind. Exponential
	// noise with no per-rank override, exponential latency and a
	// constant per-byte cost, each with a non-negative parameter, draw
	// directly in osNoise, latency and perByte: one call into the
	// ziggurat (or a multiply), with no law lookup, type switch or
	// clamp per draw, since such a draw is never negative.
	expNoise, expLat, constPerByte bool
	noiseExp, latExp               dist.Exponential
	perByteC                       float64

	// Sample counts for the metrics flush. Plain ints: a sampler
	// belongs to one single-goroutine analysis, so the counts go
	// through the shared registry only once, at the end of the run.
	nNoise, nMsg int64
}

func newSampler(m *Model, nranks int) *sampler {
	s := &sampler{}
	rngs := make([]dist.RNG, nranks+1)
	dist.ForkHierarchyInto(m.Seed, forkLabels(nranks), rngs)
	s.useRNGs(rngs)
	s.bind(m)
	return s
}

// useRNGs points the sampler's streams into rngs, which holds the
// generator hierarchy in fork order: the message stream, then one
// stream per rank ascending.
func (s *sampler) useRNGs(rngs []dist.RNG) {
	s.msgRNG = &rngs[0]
	s.rankRNG = make([]*dist.RNG, len(rngs)-1)
	for r := range s.rankRNG {
		s.rankRNG[r] = &rngs[r+1]
	}
}

// forkLabels returns the sampler hierarchy's fork labels in fork
// order: "messages", then "rank-0" to "rank-<n-1>". Running
// dist.ForkHierarchyInto over them is what gives the streaming and the
// compiled engine the same streams. The labels are slices of one
// string, so a hierarchy costs two allocations whatever its size.
func forkLabels(n int) []string {
	const msgs, prefix = "messages", "rank-"
	size := len(msgs)
	for r := 0; r < n; r++ {
		size += len(prefix) + decimalLen(r)
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(msgs)
	var digits [20]byte
	for r := 0; r < n; r++ {
		b.WriteString(prefix)
		b.Write(strconv.AppendInt(digits[:0], int64(r), 10))
	}
	all := b.String()
	labels := make([]string, n+1)
	labels[0], all = all[:len(msgs)], all[len(msgs):]
	for r := 0; r < n; r++ {
		k := len(prefix) + decimalLen(r)
		labels[r+1], all = all[:k], all[k:]
	}
	return labels
}

// decimalLen is the number of decimal digits of a non-negative r.
func decimalLen(r int) int {
	n := 1
	for ; r >= 10; r /= 10 {
		n++
	}
	return n
}

// bind points the sampler at a model, resolves its draw laws and
// clears the sample counts.
//
//mpg:hotpath
func (s *sampler) bind(m *Model) {
	s.model = m
	s.noiseExp, s.expNoise = m.OSNoise.(dist.Exponential)
	s.expNoise = s.expNoise && !(s.noiseExp.MeanValue < 0) && len(m.RankOSNoise) == 0
	s.latExp, s.expLat = m.MsgLatency.(dist.Exponential)
	s.expLat = s.expLat && !(s.latExp.MeanValue < 0)
	pb, ok := m.PerByte.(dist.Constant)
	s.perByteC, s.constPerByte = pb.C, ok && !(pb.C < 0)
	s.nNoise, s.nMsg = 0, 0
}

// expNoiseDraw draws from the noise law bind resolved; callers check
// expNoise first.
//
//mpg:hotpath
func (s *sampler) expNoiseDraw(rank int) float64 {
	s.nNoise++
	return s.noiseExp.Sample(s.rankRNG[rank])
}

// sampleFast draws one value from d, devirtualizing the common
// concrete distributions: the type switch lets the compiler emit
// direct (inlinable) calls into the ziggurat fast path for the
// families that dominate perturbation models, instead of an interface
// dispatch per draw. Behavior is identical to d.Sample(r) for every
// type — this is purely a call-overhead optimization, so the streaming
// and compiled engines draw the same values whether or not their call
// site went through the switch.
//
//mpg:hotpath
func sampleFast(d dist.Distribution, r *dist.RNG) float64 {
	switch v := d.(type) {
	case dist.Exponential:
		return v.Sample(r)
	case dist.Constant:
		return v.C
	case dist.Normal:
		return v.Sample(r)
	case dist.Uniform:
		return v.Sample(r)
	default:
		return d.Sample(r) //mpg:lint-ignore hotpathprop interface fallback for custom distributions outside the specialized fast paths; stock models hit the concrete cases above
	}
}

// clamp applies the non-negativity rule unless the model allows
// negative deltas.
//
//mpg:hotpath
func (s *sampler) clamp(v float64) float64 {
	if v < 0 && !s.model.AllowNegative {
		return 0
	}
	return v
}

// noiseDist resolves the noise distribution for a rank (per-rank
// override first, then the shared one; nil = no noise).
//
//mpg:hotpath
func (s *sampler) noiseDist(rank int) dist.Distribution {
	if rank < len(s.model.RankOSNoise) && s.model.RankOSNoise[rank] != nil {
		return s.model.RankOSNoise[rank]
	}
	return s.model.OSNoise
}

// osNoise samples the local-edge delta for one operation edge on rank.
//
//mpg:hotpath
func (s *sampler) osNoise(rank int) float64 {
	if s.expNoise {
		return s.expNoiseDraw(rank)
	}
	d := s.noiseDist(rank)
	if d == nil {
		return 0
	}
	s.nNoise++
	return s.clamp(sampleFast(d, s.rankRNG[rank]))
}

// quantizedNoise samples the delta for a compute gap of w > 0 cycles
// under a positive Model.NoiseQuantum q: one draw per started quantum.
//
//mpg:hotpath
func (s *sampler) quantizedNoise(rank int, w int64) float64 {
	q := s.model.NoiseQuantum
	d := s.noiseDist(rank)
	if d == nil {
		return 0
	}
	// ceil(w/q) without forming w+q−1, which wraps for a gap within q
	// of MaxInt64.
	quanta := w / q
	if w%q != 0 {
		quanta++
	}
	n := quanta
	if n > MaxNoiseSamplesPerEdge {
		n = MaxNoiseSamplesPerEdge
	}
	var sum float64
	s.nNoise += n
	for i := int64(0); i < n; i++ {
		sum += s.clamp(sampleFast(d, s.rankRNG[rank]))
	}
	if n < quanta {
		sum *= float64(quanta) / float64(n)
	}
	return sum
}

// latency samples the message-edge latency delta.
//
//mpg:hotpath
func (s *sampler) latency() float64 {
	if s.expLat {
		s.nMsg++
		return s.latExp.Sample(s.msgRNG)
	}
	if s.model.MsgLatency == nil {
		return 0
	}
	s.nMsg++
	return s.clamp(sampleFast(s.model.MsgLatency, s.msgRNG))
}

// perByte samples the size-dependent message delta for a payload.
//
//mpg:hotpath
func (s *sampler) perByte(bytes int64) float64 {
	if s.constPerByte {
		if bytes <= 0 {
			return 0
		}
		s.nMsg++
		return s.perByteC * float64(bytes)
	}
	if s.model.PerByte == nil || bytes <= 0 {
		return 0
	}
	s.nMsg++
	return s.clamp(sampleFast(s.model.PerByte, s.msgRNG) * float64(bytes))
}
