package trace

import "sync"

// Snapshot is an immutable in-memory copy of a traced run from which
// any number of independent Sets can be built. It exists for parallel
// replay: a Set is single-use (its readers carry a position), so
// concurrent Analyze calls must each get their own readers — but the
// records themselves never change, so they can be shared. A Snapshot
// drains the trace once and then hands out lightweight reader sets
// over the shared record slices.
//
// Acquire draws the per-replay reader scratch from an internal
// sync.Pool, so a bounded worker pool replaying thousands of tasks
// keeps the reader overhead at O(workers), not O(tasks).
type Snapshot struct {
	traces []*MemTrace // canonical records; never mutated after NewSnapshot
	pool   sync.Pool   // of []*MemTrace wrapper sets
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

// Acquire returns a fresh single-use Set over the snapshot's records
// plus a release function that recycles the reader scratch. Call
// release after the Set has been consumed (e.g. after core.Analyze
// returns); the Set must not be used afterwards. Any number of
// acquired Sets may be consumed concurrently.
//
//mpg:hotpath
func (s *Snapshot) Acquire() (*Set, func()) {
	wrappers, _ := s.pool.Get().([]*MemTrace) //mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Get itself does not allocate
	if wrappers == nil {
		//mpg:lint-ignore hotpathprop cold pool-miss path; wrapper sets are recycled across acquisitions
		wrappers = make([]*MemTrace, len(s.traces))
		for i := range wrappers {
			//mpg:lint-ignore hotpathprop cold pool-miss path; wrapper sets are recycled across acquisitions
			wrappers[i] = &MemTrace{}
		}
	}
	//mpg:lint-ignore hotpathprop per-acquire readers slice is part of the documented budget (AllocsPerRun-guarded <= 6)
	readers := make([]Reader, len(wrappers))
	for i, w := range wrappers {
		w.Hdr = s.traces[i].Hdr
		w.Records = s.traces[i].Records
		w.pos = 0
		readers[i] = w
	}
	// The wrappers are by construction a valid rank-complete set;
	// bypass NewSet's validation (it cannot fail here).
	//mpg:lint-ignore hotpathprop the returned Set is part of the documented budget (AllocsPerRun-guarded <= 6)
	set := &Set{readers: readers}
	//mpg:lint-ignore hotpathprop the release closure escapes by design and is counted in the guarded budget
	release := func() { s.pool.Put(wrappers) } //mpg:lint-ignore hotpathprop sync.Pool is stubbed by the analysis loader; Put does not allocate
	return set, release
}
