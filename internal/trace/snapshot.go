package trace

// Snapshot is an immutable in-memory traced run from which any number
// of independent Sets can be built. It exists for parallel replay: a
// Set is single-use (its readers carry a position), so concurrent
// Analyze calls must each get their own readers — but the records
// themselves never change, so they can be shared. A Snapshot wraps a
// run's in-memory records once and hands out lightweight reader sets
// over the shared record slices.
type Snapshot struct {
	traces []*MemTrace // canonical records, by rank; never mutated
}

// SnapshotFromMem wraps in-memory traces, such as a traced run's
// mpi.Result.Traces, as a Snapshot without copying their records. The
// caller must not modify the traces afterwards.
func SnapshotFromMem(traces []*MemTrace) (*Snapshot, error) {
	set, err := SetFromMem(traces) // validates and orders by rank
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{traces: make([]*MemTrace, set.NRanks())}
	for r := range snap.traces {
		m := set.Rank(r).(*MemTrace)
		// Validate once here rather than in every Set; an invalid
		// record is reported by each Set's reader as it reaches it.
		_ = m.validate()
		snap.traces[r] = m
	}
	return snap, nil
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
	wrappers := make([]MemTrace, len(s.traces))
	for i, m := range s.traces {
		wrappers[i] = MemTrace{Hdr: m.Hdr, Records: m.Records, valid: m.valid}
		readers[i] = &wrappers[i]
	}
	// The wrappers are by construction a valid rank-complete set;
	// bypass NewSet's validation (it cannot fail here).
	return &Set{readers: readers}
}
