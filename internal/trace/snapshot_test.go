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
	set, err := SetFromMem([]*MemTrace{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(set)
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
			_, err := set.Rank(r).Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
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
					_, err := set.Rank(r).Next()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						errc <- err.Error()
						return
					}
					n++
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
