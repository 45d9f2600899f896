package trace

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	for _, tc := range []struct {
		k    Kind
		want string
	}{
		{KindSend, "send"},
		{KindRecv, "recv"},
		{KindIsend, "isend"},
		{KindAllreduce, "allreduce"},
		{KindInvalid, "invalid"},
		{Kind(200), "kind(200)"},
	} {
		if got := tc.k.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tc.k, got, tc.want)
		}
	}
}

func TestKindClassification(t *testing.T) {
	type want struct {
		p2p, coll, nonblk, compl, rooted bool
	}
	cases := map[Kind]want{
		KindSend:      {p2p: true},
		KindRecv:      {p2p: true},
		KindIsend:     {p2p: true, nonblk: true},
		KindIrecv:     {p2p: true, nonblk: true},
		KindWait:      {compl: true},
		KindWaitall:   {compl: true},
		KindBarrier:   {coll: true},
		KindBcast:     {coll: true, rooted: true},
		KindReduce:    {coll: true, rooted: true},
		KindAllreduce: {coll: true},
		KindGather:    {coll: true, rooted: true},
		KindAllgather: {coll: true},
		KindScatter:   {coll: true, rooted: true},
		KindAlltoall:  {coll: true},
		KindScan:      {coll: true},
		KindCommSplit: {coll: true},
		KindInit:      {},
		KindFinalize:  {},
		KindMarker:    {},
	}
	for k, w := range cases {
		if k.IsPointToPoint() != w.p2p {
			t.Errorf("%s.IsPointToPoint() = %v", k, k.IsPointToPoint())
		}
		if k.IsCollective() != w.coll {
			t.Errorf("%s.IsCollective() = %v", k, k.IsCollective())
		}
		if k.IsNonblocking() != w.nonblk {
			t.Errorf("%s.IsNonblocking() = %v", k, k.IsNonblocking())
		}
		if k.IsCompletion() != w.compl {
			t.Errorf("%s.IsCompletion() = %v", k, k.IsCompletion())
		}
		if k.IsRooted() != w.rooted {
			t.Errorf("%s.IsRooted() = %v", k, k.IsRooted())
		}
		if !k.Valid() {
			t.Errorf("%s.Valid() = false", k)
		}
	}
	if KindInvalid.Valid() || Kind(99).Valid() {
		t.Error("invalid kinds reported valid")
	}
}

func TestRecordValidate(t *testing.T) {
	good := []Record{
		{Kind: KindInit, Begin: 0, End: 10, Peer: NoRank, Root: NoRank},
		{Kind: KindSend, Begin: 5, End: 9, Peer: 1, Bytes: 100, Root: NoRank},
		{Kind: KindIsend, Begin: 5, End: 6, Peer: 1, Req: 3, Root: NoRank},
		{Kind: KindWait, Begin: 8, End: 12, Peer: NoRank, Req: 3, Root: NoRank},
		{Kind: KindAllreduce, Begin: 0, End: 4, Peer: NoRank, Seq: 1, Root: NoRank, Bytes: 8, CommSize: 2},
		{Kind: KindReduce, Begin: 0, End: 4, Peer: NoRank, Seq: 2, Root: 0, CommSize: 2},
		{Kind: KindMarker, Begin: 3, End: 3, Peer: NoRank, Tag: 7, Root: NoRank},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("valid record %v rejected: %v", r, err)
		}
	}
	bad := []Record{
		{Kind: KindInvalid, Peer: NoRank, Root: NoRank},
		{Kind: Kind(99), Peer: NoRank, Root: NoRank},
		{Kind: KindInit, Begin: 10, End: 5, Peer: NoRank, Root: NoRank},
		{Kind: KindInit, Begin: -1 << 63, End: 0, Peer: NoRank, Root: NoRank},                // span overflows int64
		{Kind: KindSend, Begin: 0, End: 1, Peer: NoRank, Root: NoRank},                       // pt2pt without peer
		{Kind: KindSend, Begin: 0, End: 1, Peer: 1, Bytes: -1, Root: NoRank},                 // negative size
		{Kind: KindIsend, Begin: 0, End: 1, Peer: 1, Root: NoRank},                           // missing req
		{Kind: KindWait, Begin: 0, End: 1, Peer: NoRank, Root: NoRank},                       // missing req
		{Kind: KindBarrier, Begin: 0, End: 1, Peer: NoRank, Root: NoRank},                    // missing seq
		{Kind: KindBcast, Begin: 0, End: 1, Peer: NoRank, Seq: 1, Root: NoRank, CommSize: 2}, // missing root
		{Kind: KindBarrier, Begin: 0, End: 1, Peer: NoRank, Seq: 1, Root: NoRank},            // missing comm size
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("invalid record %v accepted", r)
		}
	}
}

func TestRecordDurationAndString(t *testing.T) {
	r := Record{Kind: KindSend, Begin: 100, End: 150, Peer: 2, Tag: 9, Bytes: 4096, Root: NoRank}
	if r.Duration() != 50 {
		t.Fatalf("Duration = %d", r.Duration())
	}
	s := r.String()
	for _, frag := range []string{"send", "100", "150", "peer=2", "tag=9", "bytes=4096"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

func TestHeaderValidate(t *testing.T) {
	if err := (Header{Rank: 0, NRanks: 4}).Validate(); err != nil {
		t.Errorf("valid header rejected: %v", err)
	}
	for _, h := range []Header{
		{Rank: 0, NRanks: 0},
		{Rank: -1, NRanks: 4},
		{Rank: 4, NRanks: 4},
	} {
		if err := h.Validate(); err == nil {
			t.Errorf("invalid header %+v accepted", h)
		}
	}
}
