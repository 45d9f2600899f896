package core

import (
	"fmt"
	"reflect"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// analyzeCrit runs the streaming analyzer over the snapshot with
// critical-path recording and returns the analyzer, whose pool the
// tests inspect, and its result.
func analyzeCrit(t *testing.T, snap *trace.Snapshot, model *Model) (*analyzer, *Result) {
	t.Helper()
	a, err := newAnalyzer(snap.Set(), model, Options{RecordCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	return a, res
}

// critPoolModel is the what-if model of the pool tests.
func critPoolModel(coll CollectiveMode) *Model {
	return &Model{
		Seed:        3,
		OSNoise:     dist.Exponential{MeanValue: 300},
		MsgLatency:  dist.Exponential{MeanValue: 500},
		PerByte:     dist.Constant{C: 0.5},
		Collectives: coll,
	}
}

// TestCritPathPoolBounded pins the §4.2/§6 streaming claim for the
// critical path in nodes: the pool keeps the chains that can still win,
// so its high-water node count follows the critical path (two steps per
// node) plus the window, here at most 32 nodes per rank, not the trace
// length. Keeping one node per record holds all 870k of stencil2d's at
// 800 iterations, against ~7k.
func TestCritPathPoolBounded(t *testing.T) {
	const nranks = 64
	for _, wl := range []string{"stencil2d", "cg", "stencil1d", "tokenring"} {
		for _, it := range []int{50, 800} {
			snap := snapWorkload(t, wl, nranks, workloads.Options{Iterations: it})
			for _, coll := range []CollectiveMode{CollectiveApprox, CollectiveExplicit} {
				a, res := analyzeCrit(t, snap, critPoolModel(coll))
				nodes, steps := len(a.crit.nodes), len(res.CritPath.Steps)
				bound := (steps+1)/2 + 32*nranks
				t.Logf("%s, %d iterations, %s: %d nodes at high water for %d events, path %d steps (bound %d)",
					wl, it, coll, nodes, res.Events, steps, bound)
				if nodes > bound {
					t.Errorf("%s, %d iterations, %s: pool reached %d nodes; want <= %d (path %d steps, %d ranks)",
						wl, it, coll, nodes, bound, steps, nranks)
				}
			}
		}
	}
}

// TestCritRefcountsMatchReachability recounts every pool node's
// references from the roots left after a clean run — the rank
// frontiers and the pred of every live node — and requires the stored
// counts to match and no freed node to be reachable. A leaked reference
// or a double release shows here even when the path it spares or
// corrupts is not the critical one.
func TestCritRefcountsMatchReachability(t *testing.T) {
	models := []struct {
		name  string
		model *Model
	}{
		{"approx", critPoolModel(CollectiveApprox)},
		{"explicit", critPoolModel(CollectiveExplicit)},
		{"negative", &Model{Seed: 13, OSNoise: dist.Normal{Mu: 0, Sigma: 80},
			MsgLatency: dist.Normal{Mu: 100, Sigma: 150}, AllowNegative: true}},
	}
	for _, wl := range append(workloads.Names(), "collzoo") {
		var snap *trace.Snapshot
		if wl == "collzoo" {
			snap = snapProgram(t, 6, collZoo)
		} else {
			snap = snapWorkload(t, wl, 8, workloads.Options{Iterations: 6, CollEvery: 2})
		}
		for _, m := range models {
			t.Run(fmt.Sprintf("%s/%s", wl, m.name), func(t *testing.T) {
				a, _ := analyzeCrit(t, snap, m.model)
				checkCritRefs(t, a.crit)
			})
		}
	}
}

// checkCritRefs recounts the pool's references from its roots: a rank
// frontier, or the pred of a node not on the free list.
func checkCritRefs(t *testing.T, p *critPool) {
	t.Helper()
	freed := make([]bool, len(p.nodes))
	nFree := 0
	for i := p.free; i >= 0; i = p.nodes[i].pred {
		if freed[i] {
			t.Fatalf("node %d is on the free list twice", i)
		}
		freed[i] = true
		nFree++
	}
	refs := make([]int32, len(p.nodes))
	for _, f := range p.front {
		if f >= 0 {
			refs[f]++
		}
	}
	for i, n := range p.nodes {
		if !freed[i] && n.pred >= 0 {
			refs[n.pred]++
		}
	}
	for i, n := range p.nodes {
		switch {
		case freed[i] && refs[i] > 0:
			t.Errorf("freed node %d is reachable: %d references", i, refs[i])
		case !freed[i] && (n.refs != refs[i] || n.refs == 0):
			t.Errorf("live node %d holds %d references; the roots give it %d", i, n.refs, refs[i])
		}
	}
	t.Logf("%d nodes, %d free", len(p.nodes), nFree)
}

// TestCritPathUnknownCollectiveMode: a collective mode neither engine
// knows resolves nothing, so every contribution is 0, and under
// negative perturbations a participant whose own path fell below 0
// waits on it. Both engines must then name the lowest rank the winner
// and agree on the whole result.
func TestCritPathUnknownCollectiveMode(t *testing.T) {
	snap := snapProgram(t, 6, collZoo)
	model := &Model{Seed: 13, OSNoise: dist.Normal{Mu: -200, Sigma: 80},
		MsgLatency: dist.Normal{Mu: 100, Sigma: 150}, AllowNegative: true, Collectives: CollectiveMode(99)}
	waits := 0
	want, err := Analyze(snap.Set(), model, Options{RecordCritPath: true, Interval: func(p IntervalPoint) {
		if p.State == WaitCollective {
			waits++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if waits == 0 {
		t.Fatal("no collective completion waited on the unresolved contribution")
	}
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayCompiled(c, model, Options{RecordCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay diverged from Analyze:\n%s", diffResults(want, got))
	}
}
