package mpi

import (
	"slices"
	"testing"
)

// TestEarlySendsReleased: a send posted before its receive waits on a
// wildcard list in case a RecvAny adopts it. Once its specific receive
// claims it, the list must let it go, so a run of 200 early sends ends
// holding a few of them at most, not one per message.
func TestEarlySendsReleased(t *testing.T) {
	const msgs = 200
	var w *World
	mustRun(t, Config{Machine: quiet(2)}, func(r *Rank) error {
		if r.Rank() == 0 {
			w = r.world
		}
		for i := 0; i < msgs; i++ {
			if r.Rank() == 0 {
				r.Ssend(1, 0, 8)
			} else {
				r.Compute(10_000) // the send is always posted first
				r.Recv(0, 0)
			}
		}
		return nil
	})
	held := 0
	for _, sends := range w.wildSends {
		held += cap(sends)
	}
	if held > 2 {
		t.Fatalf("after %d early sends the wildcard lists hold room for %d transfers; want at most 2", msgs, held)
	}
}

// TestAppendWildSendCompactsInOrder: a full list drops the sends a
// specific receive has claimed and keeps the rest in posting order,
// so RecvAny still adopts the oldest unclaimed send.
func TestAppendWildSendCompactsInOrder(t *testing.T) {
	xs := make([]*xfer, 6)
	for i := range xs {
		xs[i] = &xfer{bytes: int64(i), recvPosted: i%2 == 0}
	}
	list := append(make([]*xfer, 0, 5), xs[:5]...)
	got := appendWildSend(list, xs[5])
	if want := []*xfer{xs[1], xs[3], xs[5]}; !slices.Equal(got, want) {
		t.Fatalf("compacted list holds sizes %v, want [1 3 5]", sizes(got))
	}
	if slices.Contains(list[:cap(list)], xs[4]) {
		t.Fatal("a dropped send is still referenced by the list's backing array")
	}
}

func sizes(xs []*xfer) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.bytes
	}
	return out
}

// TestWorldMembersShared: every rank's world communicator reads the
// one member list its world builds; a list per rank costs O(n²) per
// run.
func TestWorldMembersShared(t *testing.T) {
	comms := make([]*Comm, 4)
	mustRun(t, Config{Machine: quiet(4)}, func(r *Rank) error {
		comms[r.Rank()] = r.World()
		return nil
	})
	for i, c := range comms {
		if &c.members[0] != &comms[0].members[0] {
			t.Errorf("rank %d's world communicator has its own member list", i)
		}
		if c.Size() != 4 || c.WorldRank(i) != i {
			t.Errorf("rank %d's world communicator: size %d, rank %d is world rank %d", i, c.Size(), i, c.WorldRank(i))
		}
	}
}
