// Package timeline reconstructs per-rank interval tracks from a replay
// of the message-passing graph: for every event it derives the
// perturbed [start, end] interval from the traced times plus the
// realized delays, splits the interval into an execution part and a
// wait part, and classifies the wait by what the rank was waiting for
// (late sender, late receiver, collective imbalance). The recorder is
// a core.Options.Interval hook, so it works identically under the
// streaming analyzer and the compiled replayer.
//
// The decomposition is exact, not approximate: interval boundaries are
// shared bit-for-bit between adjacent segments, a rank's last interval
// ends at float64(OrigEnd) + FinalDelay — the same expression Result
// uses for that rank's completion — and the per-rank wait total is
// accumulated in merge order so it equals RankResult.DelayInduced
// bitwise. Check verifies all of this against a Result, and the verify
// campaign runs that check on every generated scenario.
package timeline

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mpgraph/internal/core"
	"mpgraph/internal/trace"
)

// Event is one reconstructed interval on a rank's track. Times are in
// simulated cycles on the perturbed clock: Start/End are the traced
// begin/end plus the realized delays at the corresponding subevents,
// and WaitStart splits the interval so [Start, WaitStart] is execution
// and [WaitStart, End] is the wait charged by the completion merge.
type Event struct {
	Index     int64      // per-rank event index (dense, in track order)
	Kind      trace.Kind // traced record kind
	OrigBegin int64      // traced begin (cycles)
	OrigEnd   int64      // traced end (cycles)

	StartDelay float64 // D at the start subevent
	EndDelay   float64 // D at the end subevent

	Start     float64 // perturbed begin, clamped to the previous End
	WaitStart float64 // End − Wait, clamped into [Start, End]
	End       float64 // float64(OrigEnd) + EndDelay, exactly

	// Wait is the delay the completion merge charged to a remote path:
	// exactly the increment mergeEnd added to DelayInduced (zero when
	// the local path won or the event has no merge).
	Wait  float64
	State core.WaitState
}

// Flow is one message edge: the sender's post event to the receiver's
// completion event. Recorded for every receive completion, whether or
// not the data path won the merge.
type Flow struct {
	SrcRank  int
	SrcEvent int64
	DstRank  int
	DstEvent int64
}

// RankWaits is one rank's wait-state decomposition. Total is
// accumulated in merge order and equals RankResult.DelayInduced
// bitwise; the per-state buckets are reporting-level sums whose order
// matches Total's, so LateSender+LateReceiver+Collective may differ
// from Total only by the usual FP reassociation (each bucket alone is
// an in-order partial sum).
type RankWaits struct {
	LateSender   float64
	LateReceiver float64
	Collective   float64
	Total        float64
}

// Timeline accumulates per-rank tracks from IntervalPoints. Record is
// directly usable as core.Options.Interval. Not safe for concurrent
// use; one replay feeds one Timeline.
type Timeline struct {
	Ranks [][]Event
	Flows []Flow
	Waits []RankWaits
}

// New returns a Timeline with capacity hints for nranks tracks.
func New(nranks int) *Timeline {
	return &Timeline{
		Ranks: make([][]Event, 0, nranks),
		Waits: make([]RankWaits, 0, nranks),
	}
}

// Record appends one resolved event end to its rank's track. Points
// must arrive in per-rank event order (the Options.Interval delivery
// contract); ranks may interleave arbitrarily.
func (t *Timeline) Record(p core.IntervalPoint) {
	for len(t.Ranks) <= p.Rank {
		t.Ranks = append(t.Ranks, nil)
		t.Waits = append(t.Waits, RankWaits{})
	}
	evs := t.Ranks[p.Rank]
	start := float64(p.OrigBegin) + p.StartDelay
	end := float64(p.OrigEnd) + p.EndDelay
	// Tiling by construction: a segment begins exactly where the
	// previous one ended. Delay-space order preservation implies
	// start >= prevEnd already; the clamp makes the tiling robust to
	// FP rounding of the absolute times without touching End (the
	// invariant-bearing boundary).
	if n := len(evs); n > 0 && start < evs[n-1].End {
		start = evs[n-1].End
	}
	ws := end - p.Wait
	if ws < start {
		ws = start
	}
	if ws > end {
		ws = end
	}
	t.Ranks[p.Rank] = append(evs, Event{
		Index:      p.Event,
		Kind:       trace.Kind(p.Kind),
		OrigBegin:  p.OrigBegin,
		OrigEnd:    p.OrigEnd,
		StartDelay: p.StartDelay,
		EndDelay:   p.EndDelay,
		Start:      start,
		WaitStart:  ws,
		End:        end,
		Wait:       p.Wait,
		State:      p.State,
	})
	if p.State != core.WaitNone {
		w := &t.Waits[p.Rank]
		w.Total += p.Wait
		switch p.State {
		case core.WaitLateSender:
			w.LateSender += p.Wait
		case core.WaitLateReceiver:
			w.LateReceiver += p.Wait
		case core.WaitCollective:
			w.Collective += p.Wait
		}
	}
	if p.PeerRank >= 0 {
		t.Flows = append(t.Flows, Flow{
			SrcRank:  p.PeerRank,
			SrcEvent: p.PeerEvent,
			DstRank:  p.Rank,
			DstEvent: p.Event,
		})
	}
}

// Check verifies the timeline against the Result of the same replay:
// track shapes, segment ordering, the exact telescoping of intervals
// to each rank's completion time, the bitwise agreement of wait totals
// with DelayInduced, and (when the Result carries a critical path) that
// every path step's recorded delay matches the track. It returns one
// message per violation; an empty slice means the decomposition is
// exact.
func (t *Timeline) Check(res *core.Result) []string {
	var bad []string
	if len(t.Ranks) > res.NRanks {
		bad = append(bad, fmt.Sprintf("timeline has %d tracks for %d ranks", len(t.Ranks), res.NRanks))
	}
	for r := 0; r < res.NRanks; r++ {
		rr := &res.Ranks[r]
		var evs []Event
		if r < len(t.Ranks) {
			evs = t.Ranks[r]
		}
		if int64(len(evs)) != rr.Events {
			bad = append(bad, fmt.Sprintf("rank %d: %d intervals for %d events", r, len(evs), rr.Events))
			continue
		}
		for i := range evs {
			e := &evs[i]
			if e.Index != int64(i) {
				bad = append(bad, fmt.Sprintf("rank %d interval %d: event index %d out of order", r, i, e.Index))
			}
			if e.WaitStart < e.Start || e.End < e.WaitStart {
				bad = append(bad, fmt.Sprintf("rank %d event %d: segments disordered (start=%g waitStart=%g end=%g)", r, i, e.Start, e.WaitStart, e.End))
			}
			if i > 0 && e.Start < evs[i-1].End {
				bad = append(bad, fmt.Sprintf("rank %d event %d: starts (%g) before predecessor ends (%g)", r, i, e.Start, evs[i-1].End))
			}
			if e.Wait < 0 {
				bad = append(bad, fmt.Sprintf("rank %d event %d: negative wait %g", r, i, e.Wait))
			}
			hasWait := e.State != core.WaitNone
			if !hasWait && (e.Wait > 0 || e.Wait < 0) {
				bad = append(bad, fmt.Sprintf("rank %d event %d: wait %g without a wait state", r, i, e.Wait))
			}
		}
		if n := len(evs); n > 0 {
			// The exact telescoping invariant: the track's last boundary is
			// the rank's completion time, computed with the identical FP
			// expression RankResult uses, so equality is bitwise.
			got := evs[n-1].End
			want := float64(rr.OrigEnd) + rr.FinalDelay
			if math.Float64bits(got) != math.Float64bits(want) {
				bad = append(bad, fmt.Sprintf("rank %d: track ends at %v, completion is %v (Δ=%g)", r, got, want, got-want))
			}
		}
		var wr RankWaits
		if r < len(t.Waits) {
			wr = t.Waits[r]
		}
		// The wait total is accumulated in merge order, so it must equal
		// the engine's DelayInduced accumulation bitwise.
		if math.Float64bits(wr.Total) != math.Float64bits(rr.DelayInduced) {
			bad = append(bad, fmt.Sprintf("rank %d: wait total %v != DelayInduced %v (Δ=%g)", r, wr.Total, rr.DelayInduced, wr.Total-rr.DelayInduced))
		}
	}
	for i, f := range t.Flows {
		if !t.hasEvent(f.SrcRank, f.SrcEvent) || !t.hasEvent(f.DstRank, f.DstEvent) {
			bad = append(bad, fmt.Sprintf("flow %d: dangling endpoint %d/%d -> %d/%d", i, f.SrcRank, f.SrcEvent, f.DstRank, f.DstEvent))
		}
	}
	if cp := res.CritPath; cp != nil {
		for i, stp := range cp.Steps {
			if !t.hasEvent(stp.Node.Rank, stp.Node.Event) {
				bad = append(bad, fmt.Sprintf("critpath step %d: node %d/%d not on the timeline", i, stp.Node.Rank, stp.Node.Event))
				continue
			}
			e := &t.Ranks[stp.Node.Rank][stp.Node.Event]
			d := e.StartDelay
			if stp.Node.End {
				d = e.EndDelay
			}
			if math.Float64bits(d) != math.Float64bits(stp.Delay) {
				bad = append(bad, fmt.Sprintf("critpath step %d (%d/%d end=%v): timeline delay %v != path delay %v", i, stp.Node.Rank, stp.Node.Event, stp.Node.End, d, stp.Delay))
			}
		}
	}
	return bad
}

func (t *Timeline) hasEvent(rank int, event int64) bool {
	return rank >= 0 && rank < len(t.Ranks) && event >= 0 && event < int64(len(t.Ranks[rank]))
}

// Span returns the [min start, max end] bounds over the selected ranks
// (all ranks when sel is nil), and false when the timeline is empty.
func (t *Timeline) Span(sel []int) (lo, hi float64, ok bool) {
	for _, evs := range t.selected(sel) {
		if len(evs) == 0 {
			continue
		}
		if !ok {
			lo, hi, ok = evs[0].Start, evs[len(evs)-1].End, true
			continue
		}
		if evs[0].Start < lo {
			lo = evs[0].Start
		}
		if evs[len(evs)-1].End > hi {
			hi = evs[len(evs)-1].End
		}
	}
	return lo, hi, ok
}

func (t *Timeline) selected(sel []int) [][]Event {
	if sel == nil {
		return t.Ranks
	}
	out := make([][]Event, 0, len(sel))
	for _, r := range sel {
		if r >= 0 && r < len(t.Ranks) {
			out = append(out, t.Ranks[r])
		}
	}
	return out
}

// ParseRanks parses a rank filter like "0-3,7,12" against a world of
// nranks, returning the selected ranks sorted and deduplicated. An
// empty spec (or "all") selects every rank, reported as nil.
func ParseRanks(spec string, nranks int) ([]int, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return nil, nil
	}
	seen := make(map[int]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, hi = part[:i], part[i+1:]
		}
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("timeline: bad rank %q in %q", lo, spec)
		}
		b, err := strconv.Atoi(hi)
		if err != nil {
			return nil, fmt.Errorf("timeline: bad rank %q in %q", hi, spec)
		}
		if a > b {
			return nil, fmt.Errorf("timeline: empty rank range %q", part)
		}
		for r := a; r <= b; r++ {
			if r < 0 || r >= nranks {
				return nil, fmt.Errorf("timeline: rank %d outside world of %d", r, nranks)
			}
			seen[r] = true
		}
	}
	if len(seen) == 0 {
		return nil, nil
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out, nil
}
