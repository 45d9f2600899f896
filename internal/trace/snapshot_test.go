package trace

import (
	"errors"
	"io"
	"sync"
	"testing"
)

func snapshotFixture(t *testing.T) *Snapshot {
	t.Helper()
	mk := func(rank int) *MemTrace {
		return &MemTrace{
			Hdr: Header{Rank: rank, NRanks: 2},
			Records: []Record{
				{Kind: KindInit, Begin: 0, End: 10, Peer: NoRank, Root: NoRank},
				{Kind: KindFinalize, Begin: 20, End: 20, Peer: NoRank, Root: NoRank},
			},
		}
	}
	snap, err := SnapshotFromMem([]*MemTrace{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func drain(t *testing.T, set *Set) int {
	t.Helper()
	n := 0
	for r := 0; r < set.NRanks(); r++ {
		for {
			recs, err := set.Rank(r).Batch()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(recs)
		}
	}
	return n
}

func TestSnapshotRepeatedAcquire(t *testing.T) {
	snap := snapshotFixture(t)
	if snap.NRanks() != 2 || snap.Events() != 4 {
		t.Fatalf("snapshot shape: ranks=%d events=%d", snap.NRanks(), snap.Events())
	}
	for i := 0; i < 5; i++ {
		if got := drain(t, snap.Set()); got != 4 {
			t.Fatalf("set %d: drained %d records", i, got)
		}
	}
}

// TestSnapshotConcurrentAcquire drains many sets taken from one
// snapshot in parallel under -race: the shared records must never be mutated and each set's
// read position must be private.
func TestSnapshotConcurrentAcquire(t *testing.T) {
	snap := snapshotFixture(t)
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set := snap.Set()
			n := 0
			for r := 0; r < set.NRanks(); r++ {
				for {
					recs, err := set.Rank(r).Batch()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						errc <- err.Error()
						return
					}
					n += len(recs)
				}
			}
			if n != 4 {
				errc <- "short read"
			}
		}()
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestSnapshotWithoutRelease: two Sets taken from one snapshot before
// either is read drain independently.
func TestSnapshotWithoutRelease(t *testing.T) {
	snap := snapshotFixture(t)
	a, b := snap.Set(), snap.Set()
	if drain(t, a) != 4 || drain(t, b) != 4 {
		t.Fatal("sets from one snapshot interfere")
	}
}

// TestSnapshotFromMemSharesRecords: wrapping a run's in-memory traces
// orders them by rank and reads the caller's record slices in place,
// with no copy, however far the traces were already read.
func TestSnapshotFromMemSharesRecords(t *testing.T) {
	mk := func(rank int) *MemTrace {
		return &MemTrace{
			Hdr: Header{Rank: rank, NRanks: 2},
			Records: []Record{
				{Kind: KindInit, Begin: 0, End: 10, Peer: NoRank, Root: NoRank},
				{Kind: KindFinalize, Begin: 20, End: 20, Peer: NoRank, Root: NoRank},
			},
		}
	}
	r0, r1 := mk(0), mk(1)
	if _, err := r1.Batch(); err != nil {
		t.Fatal(err)
	}
	snap, err := SnapshotFromMem([]*MemTrace{r1, r0})
	if err != nil {
		t.Fatal(err)
	}
	for r, m := range []*MemTrace{r0, r1} {
		if &snap.traces[r].Records[0] != &m.Records[0] {
			t.Errorf("rank %d: records were copied", r)
		}
	}
	for i := 0; i < 3; i++ {
		if got := drain(t, snap.Set()); got != 4 {
			t.Fatalf("set %d: drained %d records, want 4", i, got)
		}
	}
	if _, err := SnapshotFromMem([]*MemTrace{r0}); err == nil {
		t.Error("a rank-incomplete trace set was accepted")
	}
}
