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
		snap.traces[r] = set.Rank(r).(*MemTrace)
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
	for i, m := range s.traces {
		readers[i] = &MemTrace{Hdr: m.Hdr, Records: m.Records}
	}
	// The wrappers are by construction a valid rank-complete set;
	// bypass NewSet's validation (it cannot fail here).
	return &Set{readers: readers}
}
