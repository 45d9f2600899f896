package trace

// Snapshot is an immutable in-memory copy of a traced run from which
// any number of independent Sets can be built. It exists for parallel
// replay: a Set is single-use (its readers carry a position), so
// concurrent Analyze calls must each get their own readers — but the
// records themselves never change, so they can be shared. A Snapshot
// drains the trace once and then hands out lightweight reader sets
// over the shared record slices.
type Snapshot struct {
	traces []*MemTrace // canonical records; never mutated after NewSnapshot
}

// NewSnapshot drains the Set into a Snapshot. Like any other consumer
// of a Set, it exhausts the readers: the Set cannot be analyzed
// afterwards (use the Snapshot instead).
func NewSnapshot(s *Set) (*Snapshot, error) {
	traces := make([]*MemTrace, s.NRanks())
	for r := 0; r < s.NRanks(); r++ {
		m, err := ReadAll(s.Rank(r))
		if err != nil {
			return nil, err
		}
		m.Hdr = s.Rank(r).Header()
		traces[r] = m
	}
	return &Snapshot{traces: traces}, nil
}

// NRanks returns the world size of the snapshotted run.
func (s *Snapshot) NRanks() int { return len(s.traces) }

// Events returns the total record count across ranks.
func (s *Snapshot) Events() int64 {
	var n int64
	for _, m := range s.traces {
		n += int64(len(m.Records))
	}
	return n
}

// Set returns a fresh single-use Set over the snapshot's records: new
// reader wrappers, each with its own read position, over the shared
// record slices. Any number of Sets may be consumed concurrently.
func (s *Snapshot) Set() *Set {
	readers := make([]Reader, len(s.traces))
	for i, m := range s.traces {
		readers[i] = &MemTrace{Hdr: m.Hdr, Records: m.Records}
	}
	// The wrappers are by construction a valid rank-complete set;
	// bypass NewSet's validation (it cannot fail here).
	return &Set{readers: readers}
}
