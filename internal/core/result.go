package core

import (
	"fmt"
	"math"
	"sort"

	"mpgraph/internal/dist"
)

// NodeRef identifies a subevent node: the start or end subevent of the
// Event-th record on Rank.
type NodeRef struct {
	// Rank is the world rank owning the node.
	Rank int
	// Event is the zero-based record index within the rank's trace.
	Event int64
	// End selects the end subevent (false = start subevent).
	End bool
}

// String renders the reference as r<rank>.e<event>.<s|e>.
func (n NodeRef) String() string {
	side := "s"
	if n.End {
		side = "e"
	}
	return fmt.Sprintf("r%d.e%d.%s", n.Rank, n.Event, side)
}

// EdgeKind classifies graph edges per the paper's taxonomy.
type EdgeKind uint8

const (
	// EdgeLocal connects subevents on the same rank (compute gaps and
	// event-internal start→end edges).
	EdgeLocal EdgeKind = iota
	// EdgeMessage connects matched subevents on different ranks
	// (data and acknowledgment paths of point-to-point operations).
	EdgeMessage
	// EdgeCollective connects collective participants through the
	// compact hub of the paper's Fig. 4.
	EdgeCollective
)

// String returns the edge kind name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeLocal:
		return "local"
	case EdgeMessage:
		return "message"
	case EdgeCollective:
		return "collective"
	}
	return fmt.Sprintf("edge(%d)", uint8(k))
}

// RankResult summarizes one rank's outcome.
type RankResult struct {
	// Events is the number of trace records processed.
	Events int64
	// OrigEnd is the traced local time of the rank's final subevent.
	OrigEnd int64
	// FinalDelay is D at the rank's final subevent: how much later (in
	// cycles) the rank finishes under the modeled perturbations.
	FinalDelay float64
	// InjectedLocal is the total delta injected on the rank's local
	// edges (its own OS noise).
	InjectedLocal float64
	// Absorbed counts merge nodes where the rank's own path dominated
	// (the remote perturbation was absorbed by existing slack).
	Absorbed int64
	// Propagated counts merge nodes where a remote path dominated (the
	// perturbation propagated into this rank).
	Propagated int64
	// SlackAbsorbed accumulates, over absorbed merges, how far the
	// remote contribution fell below the local one.
	SlackAbsorbed float64
	// DelayInduced accumulates, over propagated merges, how much extra
	// delay the remote path pushed onto this rank.
	DelayInduced float64
	// Attr decomposes FinalDelay by cause: the rank's own noise, other
	// ranks' noise, and message-edge deltas. The components sum to
	// FinalDelay in additive mode.
	Attr Attribution
}

// RegionKey identifies a marker-delimited region on one rank. Region
// −1 covers events before the first marker.
type RegionKey struct {
	Rank   int
	Region int32
}

// RegionStats aggregates perturbation behaviour within one region,
// supporting the paper's Section 4.2 goal of locating "regions within
// the graph where perturbations are absorbed or fully propagated".
type RegionStats struct {
	Events     int64
	Absorbed   int64
	Propagated int64
	// DelayGrowth is D at the region's last event minus D at its
	// first: how much delay the region accumulated.
	DelayGrowth float64
	firstSeen   bool
	firstDelay  float64
}

// Result is the outcome of one analysis pass.
type Result struct {
	// NRanks is the world size.
	NRanks int
	// Events is the total number of records processed.
	Events int64
	// Ranks holds per-rank summaries, indexed by rank.
	Ranks []RankResult
	// Regions holds per-region summaries for marker-annotated traces.
	Regions map[RegionKey]*RegionStats
	// MaxFinalDelay and MeanFinalDelay summarize Ranks[i].FinalDelay.
	MaxFinalDelay, MeanFinalDelay float64
	// MakespanDelay is the delay of the rank that defines the
	// perturbed makespan (max over ranks of OrigEnd+FinalDelay, minus
	// max over ranks of OrigEnd). Note: with unsynchronized clocks
	// this mixes per-rank clocks exactly as the paper's per-processor
	// reading does; it is exact when clocks are aligned.
	MakespanDelay float64
	// DelayStats aggregates the delay observed at every subevent.
	DelayStats dist.Welford
	// WindowHighWater is the maximum number of simultaneously pending
	// unmatched operations observed (the streaming window).
	WindowHighWater int
	// OrderViolations counts perturbations (possible only with
	// Model.AllowNegative) that would have made an event begin before
	// its predecessor ended or end before it began; each was clamped
	// to preserve the traced execution order (paper Section 4.3).
	OrderViolations int64
	// Warnings lists non-fatal analysis caveats, e.g. the paper's
	// Section 4.3 warning for ranks that use only asynchronous sends
	// with no completion check.
	Warnings []string
	// CritPath is the makespan blame decomposition; nil unless the
	// analysis ran with Options.RecordCritPath.
	CritPath *CriticalPath
}

// warnf appends a formatted warning.
func (r *Result) warnf(format string, args ...interface{}) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// finalize computes the aggregate fields from per-rank data.
//
//mpg:hotpath
func (r *Result) finalize() {
	var origMax, newMax float64
	var sum float64
	for i := range r.Ranks {
		d := r.Ranks[i].FinalDelay
		sum += d
		if d > r.MaxFinalDelay {
			r.MaxFinalDelay = d
		}
		oe := float64(r.Ranks[i].OrigEnd)
		if oe > origMax {
			origMax = oe
		}
		if oe+d > newMax {
			newMax = oe + d
		}
	}
	if len(r.Ranks) > 0 {
		r.MeanFinalDelay = sum / float64(len(r.Ranks))
	}
	r.MakespanDelay = newMax - origMax
	sort.Strings(r.Warnings)
}

// checkFinite fails when a perturbation overflowed float64: a rank's
// final delay, or the mean or maximum subevent delay, is infinite or
// NaN. Both engines call it once, after their event loop.
func (r *Result) checkFinite() error {
	for i := range r.Ranks {
		if d := r.Ranks[i].FinalDelay; !isFinite(d) {
			return fmt.Errorf("core: rank %d final delay is %v: the perturbation overflows float64", i, d)
		}
	}
	if m := r.DelayStats.Mean(); !isFinite(m) {
		return fmt.Errorf("core: subevent delay mean is %v: the perturbation overflows float64", m)
	}
	if m := r.DelayStats.Max(); !isFinite(m) {
		return fmt.Errorf("core: subevent delay max is %v: the perturbation overflows float64", m)
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// RegionList returns the region keys in deterministic order.
func (r *Result) RegionList() []RegionKey {
	keys := make([]RegionKey, 0, len(r.Regions))
	for k := range r.Regions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Rank != keys[j].Rank {
			return keys[i].Rank < keys[j].Rank
		}
		return keys[i].Region < keys[j].Region
	})
	return keys
}
