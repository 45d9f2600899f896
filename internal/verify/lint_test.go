package verify

import (
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/trace"
)

// mem builds a one-rank MemTrace for lint fixtures.
func mem(rank, nranks int, recs ...trace.Record) *trace.MemTrace {
	return &trace.MemTrace{
		Hdr:     trace.Header{Rank: rank, NRanks: nranks},
		Records: recs,
	}
}

// hasClass reports whether findings contain a class.
func hasClass(fs []Finding, class string) bool {
	for _, f := range fs {
		if f.Class == class {
			return true
		}
	}
	return false
}

func classes(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Class
	}
	return out
}

func TestLintCleanTraces(t *testing.T) {
	for _, class := range Classes {
		traces, err := fixedScenario(class).BuildMemTraces()
		if err != nil {
			t.Fatal(err)
		}
		if fs := LintTraces(traces); len(fs) > 0 {
			t.Fatalf("%s: clean workload trace produced findings: %v", class, fs)
		}
	}
}

func TestLintBadRecord(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 1, trace.Record{Kind: trace.KindSend, Begin: 100, End: 50, Peer: 0}),
	})
	if !hasClass(fs, LintBadRecord) {
		t.Fatalf("want %s, got %v", LintBadRecord, classes(fs))
	}
}

func TestLintNonMonotone(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2,
			trace.Record{Kind: trace.KindSend, Begin: 100, End: 200, Peer: 1},
			trace.Record{Kind: trace.KindSend, Begin: 150, End: 250, Peer: 1},
		),
		mem(1, 2,
			trace.Record{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 0},
			trace.Record{Kind: trace.KindRecv, Begin: 10, End: 20, Peer: 0},
		),
	})
	if !hasClass(fs, LintNonMonotone) {
		t.Fatalf("want %s, got %v", LintNonMonotone, classes(fs))
	}
}

func TestLintUnmatchedSend(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, trace.Record{Kind: trace.KindSend, Begin: 0, End: 10, Peer: 1}),
		mem(1, 2),
	})
	if !hasClass(fs, LintUnmatchedSend) {
		t.Fatalf("want %s, got %v", LintUnmatchedSend, classes(fs))
	}
}

func TestLintUnmatchedRecvDeadlocks(t *testing.T) {
	// A receive with no matching send is both a matching error and a
	// stall: the rank can never progress past it.
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, trace.Record{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 1}),
		mem(1, 2),
	})
	if !hasClass(fs, LintUnmatchedRecv) {
		t.Fatalf("want %s, got %v", LintUnmatchedRecv, classes(fs))
	}
	if !hasClass(fs, LintDeadlock) {
		t.Fatalf("want %s, got %v", LintDeadlock, classes(fs))
	}
}

func TestLintDanglingWait(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 1, trace.Record{Kind: trace.KindWait, Begin: 0, End: 10, Peer: trace.NoRank, Req: 7}),
	})
	if !hasClass(fs, LintDanglingWait) {
		t.Fatalf("want %s, got %v", LintDanglingWait, classes(fs))
	}
}

func TestLintUnwaitedRequest(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, trace.Record{Kind: trace.KindIsend, Begin: 0, End: 0, Peer: 1, Req: 1}),
		mem(1, 2, trace.Record{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 0}),
	})
	if !hasClass(fs, LintUnwaitedRequest) {
		t.Fatalf("want %s, got %v", LintUnwaitedRequest, classes(fs))
	}
}

func TestLintCollectiveMismatch(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, trace.Record{Kind: trace.KindBarrier, Begin: 0, End: 10, Peer: trace.NoRank, Root: trace.NoRank, Seq: 1, CommSize: 2}),
		mem(1, 2, trace.Record{Kind: trace.KindAllreduce, Begin: 0, End: 10, Peer: trace.NoRank, Root: trace.NoRank, Seq: 1, CommSize: 2, Bytes: 8}),
	})
	if !hasClass(fs, LintCollectiveMismatch) {
		t.Fatalf("want %s, got %v", LintCollectiveMismatch, classes(fs))
	}
}

func TestLintIncompleteCollective(t *testing.T) {
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, trace.Record{Kind: trace.KindBarrier, Begin: 0, End: 10, Peer: trace.NoRank, Root: trace.NoRank, Seq: 1, CommSize: 2}),
		mem(1, 2),
	})
	if !hasClass(fs, LintIncompleteCollective) {
		t.Fatalf("want %s, got %v", LintIncompleteCollective, classes(fs))
	}
}

func TestLintDeadlockRecvCycle(t *testing.T) {
	// Classic head-to-head receive deadlock: both ranks receive first,
	// send after. Matching is clean; the schedule can never run.
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2,
			trace.Record{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 1},
			trace.Record{Kind: trace.KindSend, Begin: 10, End: 20, Peer: 1},
		),
		mem(1, 2,
			trace.Record{Kind: trace.KindRecv, Begin: 0, End: 10, Peer: 0},
			trace.Record{Kind: trace.KindSend, Begin: 10, End: 20, Peer: 0},
		),
	})
	if !hasClass(fs, LintDeadlock) {
		t.Fatalf("want %s, got %v", LintDeadlock, classes(fs))
	}
	if hasClass(fs, LintUnmatchedSend) || hasClass(fs, LintUnmatchedRecv) {
		t.Fatalf("matching is clean in this fixture, got %v", classes(fs))
	}
	for _, f := range fs {
		if f.Class == LintDeadlock && f.Rank == 0 {
			if want := "waits-for cycle"; len(f.Message) < len(want) || f.Message[:len(want)] != want {
				t.Fatalf("deadlock finding should name the cycle, got %q", f.Message)
			}
		}
	}
}

func TestLintDeadlockCollectiveOrder(t *testing.T) {
	// Rank 0 enters barrier seq 1 then seq 2; rank 1 the reverse.
	bar := func(seq int64, b, e int64) trace.Record {
		return trace.Record{Kind: trace.KindBarrier, Begin: b, End: e, Peer: trace.NoRank, Root: trace.NoRank, Seq: seq, CommSize: 2}
	}
	fs := LintTraces([]*trace.MemTrace{
		mem(0, 2, bar(1, 0, 10), bar(2, 10, 20)),
		mem(1, 2, bar(2, 0, 10), bar(1, 10, 20)),
	})
	if !hasClass(fs, LintDeadlock) {
		t.Fatalf("want %s, got %v", LintDeadlock, classes(fs))
	}
}

func TestLintGraphNegativeEdgeAndCycle(t *testing.T) {
	g := &core.Graph{}
	a := core.NodeRef{Rank: 0, Event: 0}
	b := core.NodeRef{Rank: 0, Event: 0, End: true}
	g.AddNode(a, 0, trace.KindInit)
	g.AddNode(b, 10, trace.KindInit)
	g.AddEdge(a, b, core.EdgeLocal, -5, "dur")
	g.AddEdge(b, a, core.EdgeLocal, 5, "back")
	fs := LintGraph(g)
	if !hasClass(fs, LintNegativeEdge) {
		t.Fatalf("want %s, got %v", LintNegativeEdge, classes(fs))
	}
	if !hasClass(fs, LintGraphCycle) {
		t.Fatalf("want %s, got %v", LintGraphCycle, classes(fs))
	}
}

func TestLintGraphCleanFromAnalyzer(t *testing.T) {
	traces, err := fixedScenario(ClassLatency).BuildMemTraces()
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.SetFromMem(traces)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.BuildGraph(set)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("built an empty graph")
	}
	if fs := LintGraph(g); len(fs) > 0 {
		t.Fatalf("built graph from a clean trace produced findings: %v", fs)
	}
}
