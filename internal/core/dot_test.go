package core

import (
	"fmt"
	"strings"
	"testing"

	"mpgraph/internal/obsv"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

func TestBuildGraphBlockingPair(t *testing.T) {
	g, err := BuildGraph(blockingPairSet(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// 3 records per rank × 2 subevents × 2 ranks = 12 nodes.
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d, want 12", g.NumNodes())
	}
	byKind := g.EdgesByKind()
	// Local edges: per rank, 3 internal + 2 compute gaps = 5; ×2 = 10.
	if byKind[EdgeLocal] != 10 {
		t.Fatalf("local edges = %d, want 10", byKind[EdgeLocal])
	}
	// Message edges: data + ack = 2 (the paper's mandated edge pair).
	if byKind[EdgeMessage] != 2 {
		t.Fatalf("message edges = %d, want 2 (data+ack pair)", byKind[EdgeMessage])
	}
}

func TestGraphMessageEdgeEndpoints(t *testing.T) {
	g, err := BuildGraph(blockingPairSet(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	var data, ack *GraphEdge
	for i := range g.Edges() {
		e := &g.Edges()[i]
		if e.Kind != EdgeMessage {
			continue
		}
		if strings.HasPrefix(e.Label, "data") {
			data = e
		} else if e.Label == "ack" {
			ack = e
		}
	}
	if data == nil || ack == nil {
		t.Fatal("missing data or ack edge")
	}
	// Data: sender's start (rank 0 event 1) -> receiver's end.
	want := NodeRef{Rank: 0, Event: 1}
	if data.From != want {
		t.Fatalf("data edge from %v, want %v", data.From, want)
	}
	if data.To != (NodeRef{Rank: 1, Event: 1, End: true}) {
		t.Fatalf("data edge to %v", data.To)
	}
	// Ack: receiver's end -> sender's end.
	if ack.From != (NodeRef{Rank: 1, Event: 1, End: true}) ||
		ack.To != (NodeRef{Rank: 0, Event: 1, End: true}) {
		t.Fatalf("ack edge %v -> %v", ack.From, ack.To)
	}
}

func TestGraphNonblockingEdgesLandOnWaits(t *testing.T) {
	g, err := BuildGraph(nonblockingPairSet(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if e.Kind != EdgeMessage {
			continue
		}
		if strings.HasPrefix(e.Label, "data") {
			// Data edge: isend start (rank0 event1) -> receiver's WAIT end
			// (rank1 event2).
			if e.From != (NodeRef{Rank: 0, Event: 1}) {
				t.Fatalf("data from %v", e.From)
			}
			if e.To != (NodeRef{Rank: 1, Event: 2, End: true}) {
				t.Fatalf("data to %v (should be the wait, Fig. 3)", e.To)
			}
		}
	}
}

func TestCollectiveHubEdges(t *testing.T) {
	g, err := BuildGraph(collSet(t, 4, trace.KindAllreduce, 8, trace.NoRank))
	if err != nil {
		t.Fatal(err)
	}
	byKind := g.EdgesByKind()
	// Fig. 4 hub: p inbound l_delta edges + (p-1) outbound l_delta_max.
	if byKind[EdgeCollective] != 4+3 {
		t.Fatalf("collective edges = %d, want 7", byKind[EdgeCollective])
	}
}

func TestDOTOutputShape(t *testing.T) {
	g, err := BuildGraph(blockingPairSet(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("fig5 example")
	for _, frag := range []string{
		"digraph mpg {",
		`label="fig5 example"`,
		"cluster_rank0",
		"cluster_rank1",
		"style=dashed",
		"color=red",
		`"r0.e1.s"`,
		"send",
		"recv",
		"ack",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q", frag)
		}
	}
	// Deterministic output.
	if dot != g.DOT("fig5 example") {
		t.Error("DOT output not deterministic")
	}
}

func TestDOTEdgeAndNodeCountsMatchGraph(t *testing.T) {
	g, err := BuildGraph(blockingPairSet(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT("x")
	if got := strings.Count(dot, " -> "); got != g.NumEdges() {
		t.Fatalf("DOT has %d edges, graph has %d", got, g.NumEdges())
	}
}

func TestGraphNodeLookup(t *testing.T) {
	g, err := BuildGraph(blockingPairSet(t, 64))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := g.Node(NodeRef{Rank: 0, Event: 1})
	if !ok || n.Kind != trace.KindSend || n.Time != 100 {
		t.Fatalf("node lookup: %+v ok=%v", n, ok)
	}
	if _, ok := g.Node(NodeRef{Rank: 9, Event: 9}); ok {
		t.Fatal("phantom node found")
	}
}

// TestBuildGraphMatchesEngineCounters: the tape-built graph has the
// edges the analyzer counts and two nodes per event, on every
// registered workload.
func TestBuildGraphMatchesEngineCounters(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, n := range []int{2, 4, 16} {
			t.Run(fmt.Sprintf("%s/p=%d", name, n), func(t *testing.T) {
				snap := snapWorkload(t, name, n, workloads.Options{Iterations: 3, CollEvery: 1})
				reg := obsv.NewRegistry()
				res, err := Analyze(snap.Set(), &Model{}, Options{Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				g, err := BuildGraph(snap.Set())
				if err != nil {
					t.Fatal(err)
				}
				if g.NumNodes() != int(2*res.Events) {
					t.Errorf("nodes = %d, want 2×%d events", g.NumNodes(), res.Events)
				}
				byKind := g.EdgesByKind()
				counters := reg.Snapshot().Counters
				for kind, counter := range map[EdgeKind]string{
					EdgeLocal:      "core_edges_local_total",
					EdgeMessage:    "core_edges_message_total",
					EdgeCollective: "core_edges_collective_total",
				} {
					if got, want := int64(byKind[kind]), counters[counter]; got != want {
						t.Errorf("%s edges = %d, %s = %d", kind, got, counter, want)
					}
				}
			})
		}
	}
}
