package core

import (
	"fmt"
	"sort"
	"strings"

	"mpgraph/internal/trace"
)

// Graph is a materialized message-passing graph, a view of the
// compiled program (BuildGraph). It exists for visualization (the
// paper's Fig. 5 Graphviz rendering) and for structural checks; the
// analyzer itself never materializes the graph.
type Graph struct {
	nodes map[NodeRef]GraphNode
	edges []GraphEdge
}

// GraphNode is one subevent.
type GraphNode struct {
	Ref NodeRef
	// Time is the traced local-clock time of the subevent.
	Time int64
	// Kind is the owning record's kind.
	Kind trace.Kind
}

// GraphEdge is one edge with its traced weight and label.
type GraphEdge struct {
	From, To NodeRef
	Kind     EdgeKind
	Weight   int64
	Label    string
}

// AddNode introduces a subevent node with its traced local time and
// the kind of the record it belongs to.
func (g *Graph) AddNode(ref NodeRef, localTime int64, kind trace.Kind) {
	if g.nodes == nil {
		g.nodes = map[NodeRef]GraphNode{}
	}
	g.nodes[ref] = GraphNode{Ref: ref, Time: localTime, Kind: kind}
}

// AddEdge introduces an edge with its traced weight (local edges) or
// zero (message and collective edges) and a human-readable label.
func (g *Graph) AddEdge(from, to NodeRef, kind EdgeKind, weight int64, label string) {
	g.edges = append(g.edges, GraphEdge{From: from, To: to, Kind: kind, Weight: weight, Label: label})
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node looks up a subevent node.
func (g *Graph) Node(ref NodeRef) (GraphNode, bool) {
	n, ok := g.nodes[ref]
	return n, ok
}

// Edges returns the edges in insertion order. The returned slice is
// owned by the graph.
func (g *Graph) Edges() []GraphEdge { return g.edges }

// EdgesByKind counts edges of each kind.
func (g *Graph) EdgesByKind() map[EdgeKind]int {
	out := map[EdgeKind]int{}
	for _, e := range g.edges {
		out[e.Kind]++
	}
	return out
}

// BuildGraph constructs the materialized message-passing graph of a
// trace set without applying any perturbation. It compiles the set and
// walks the tape: every op contributes the nodes and edges of the
// subevents it resolves, in the order the analyzer resolved them.
func BuildGraph(set *trace.Set) (*Graph, error) {
	c, err := Compile(set, Options{})
	if err != nil {
		return nil, err
	}
	g := &Graph{nodes: make(map[NodeRef]GraphNode, 2*c.events)}
	// sendEnd[i]/recvEnd[i] is 1 + the event that completed transfer
	// i's send/receive side, or 0 while that side is open.
	sendEnd := make([]int64, len(c.msgs))
	recvEnd := make([]int64, len(c.msgs))
	// ack draws the acknowledgment edge once both sides have completed:
	// receive-completion end → send-completion end (Fig. 2/3).
	ack := func(i int32) {
		if sendEnd[i] > 0 && recvEnd[i] > 0 {
			m := &c.msgs[i]
			g.AddEdge(NodeRef{Rank: int(m.recvRank), Event: recvEnd[i] - 1, End: true},
				NodeRef{Rank: int(m.sendRank), Event: sendEnd[i] - 1, End: true}, EdgeMessage, 0, "ack")
		}
	}
	for i := range c.ops {
		o := &c.ops[i]
		switch o.code {
		case opBegin:
			if o.started {
				g.AddEdge(NodeRef{Rank: int(o.rank), Event: o.event - 1, End: true},
					NodeRef{Rank: int(o.rank), Event: o.event}, EdgeLocal, o.aux, "compute")
			}
			continue
		case opMatch:
			continue
		case opCollResolve:
			g.addHub(c, &c.colls[o.arg])
			continue
		case opEndSend:
			sendEnd[o.arg] = o.event + 1
			ack(o.arg)
		case opEndRecv:
			// The data edge runs send start → receive-completion end.
			m := &c.msgs[o.arg]
			recvEnd[o.arg] = o.event + 1
			g.AddEdge(NodeRef{Rank: int(m.sendRank), Event: m.sendEvent},
				NodeRef{Rank: int(o.rank), Event: o.event, End: true}, EdgeMessage, 0,
				fmt.Sprintf("data %dB", m.bytes))
			ack(o.arg)
		}
		// An end op: the record's two subevents and its internal edge.
		kind := trace.Kind(o.kind)
		start := NodeRef{Rank: int(o.rank), Event: o.event}
		end := NodeRef{Rank: int(o.rank), Event: o.event, End: true}
		g.AddNode(start, o.origEnd-o.aux, kind)
		g.AddNode(end, o.origEnd, kind)
		g.AddEdge(start, end, EdgeLocal, o.aux, kind.String())
	}
	return g, nil
}

// addHub draws the paper's Fig. 4 hub of one collective, centered on
// its lowest-ranked participant's end subevent: an l_delta edge from
// every participant's start to the hub, and an l_delta_max edge from
// the hub to every other participant's end.
func (g *Graph) addHub(c *Compiled, cc *compiledColl) {
	parts := c.parts[cc.partOff : cc.partOff+cc.partN]
	hub := NodeRef{Rank: int(parts[0].rank), Event: parts[0].event, End: true}
	for j, p := range parts {
		g.AddEdge(NodeRef{Rank: int(p.rank), Event: p.event}, hub, EdgeCollective, 0, "l_delta")
		if j > 0 {
			g.AddEdge(hub, NodeRef{Rank: int(p.rank), Event: p.event, End: true}, EdgeCollective, 0, "l_delta_max")
		}
	}
}

// DOT renders the graph in Graphviz format (the paper's Fig. 5):
// one cluster per rank with its straight-line chain of subevents,
// message edges dashed, collective edges dotted.
func (g *Graph) DOT(title string) string {
	return g.dot(title, nil)
}

// DOTWithPath renders the graph with a critical path overlaid: path
// nodes are filled, edges between consecutive path nodes are bold
// crimson, and path hops with no materialized edge (collective-hub
// shortcuts) gain a synthetic "crit" edge.
func (g *Graph) DOTWithPath(title string, path []PathStep) string {
	return g.dot(title, path)
}

func (g *Graph) dot(title string, path []PathStep) string {
	onPath := map[NodeRef]bool{}
	hop := map[[2]NodeRef]bool{}
	for i, s := range path {
		onPath[s.Node] = true
		if i > 0 {
			hop[[2]NodeRef{path[i-1].Node, s.Node}] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph mpg {\n")
	fmt.Fprintf(&b, "  label=%q;\n", title)
	fmt.Fprintf(&b, "  rankdir=LR;\n  node [shape=box, fontsize=9];\n")

	// Group nodes by rank, ordered.
	byRank := map[int][]GraphNode{}
	//mpg:lint-ignore detreach per-rank buckets are fully re-sorted by (event, end) before emission
	for _, n := range g.nodes {
		byRank[n.Ref.Rank] = append(byRank[n.Ref.Rank], n)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		ns := byRank[r]
		sort.Slice(ns, func(i, j int) bool {
			if ns[i].Ref.Event != ns[j].Ref.Event {
				return ns[i].Ref.Event < ns[j].Ref.Event
			}
			return !ns[i].Ref.End && ns[j].Ref.End
		})
		fmt.Fprintf(&b, "  subgraph cluster_rank%d {\n    label=\"rank %d\";\n", r, r)
		for _, n := range ns {
			hi := ""
			if onPath[n.Ref] {
				hi = ", style=filled, fillcolor=lightpink"
			}
			fmt.Fprintf(&b, "    %q [label=\"%s %s\\n@%d\"%s];\n",
				n.Ref.String(), n.Kind, side(n.Ref), n.Time, hi)
		}
		fmt.Fprintf(&b, "  }\n")
	}

	edges := append([]GraphEdge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		a, c := edges[i], edges[j]
		if a.From != c.From {
			return lessRef(a.From, c.From)
		}
		if a.To != c.To {
			return lessRef(a.To, c.To)
		}
		return a.Label < c.Label
	})
	for _, e := range edges {
		style := "solid"
		extra := ""
		switch e.Kind {
		case EdgeMessage:
			style = "dashed"
			extra = ", color=red"
		case EdgeCollective:
			style = "dotted"
			extra = ", color=blue"
		}
		key := [2]NodeRef{e.From, e.To}
		if hop[key] {
			extra = ", color=crimson, penwidth=2.5"
			delete(hop, key)
		}
		label := e.Label
		if e.Kind == EdgeLocal {
			label = fmt.Sprintf("%s w=%d", e.Label, e.Weight)
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q, style=%s%s];\n",
			e.From.String(), e.To.String(), label, style, extra)
	}
	// Path hops with no materialized edge (e.g. the winner-start →
	// participant-end shortcut through a collective hub).
	rest := make([][2]NodeRef, 0, len(hop))
	for k := range hop {
		rest = append(rest, k)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i][0] != rest[j][0] {
			return lessRef(rest[i][0], rest[j][0])
		}
		return lessRef(rest[i][1], rest[j][1])
	})
	for _, k := range rest {
		fmt.Fprintf(&b, "  %q -> %q [label=\"crit\", style=bold, color=crimson, penwidth=2.5];\n",
			k[0].String(), k[1].String())
	}
	fmt.Fprintf(&b, "}\n")
	return b.String()
}

func side(r NodeRef) string {
	if r.End {
		return "end"
	}
	return "start"
}

func lessRef(a, b NodeRef) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	if a.Event != b.Event {
		return a.Event < b.Event
	}
	return !a.End && b.End
}
