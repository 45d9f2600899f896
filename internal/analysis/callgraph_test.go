package analysis

import (
	"strings"
	"testing"
)

// buildFixtureGraph builds the call graph of the fixture packages.
func buildFixtureGraph(t *testing.T, files ...fixtureSource) *CallGraph {
	t.Helper()
	return BuildCallGraph(loadFixtures(t, files...))
}

// edgeStrings renders a node's outgoing edges as "kind target".
func edgeStrings(n *FuncNode) []string {
	var out []string
	for i := range n.Calls {
		e := &n.Calls[i]
		switch e.Kind {
		case EdgeStatic:
			out = append(out, "static "+e.Callee.Name)
		case EdgeExternal:
			out = append(out, "external "+e.ExtPkg+"."+e.ExtName)
		default:
			out = append(out, "unknown")
		}
	}
	return out
}

// TestCallGraphResolution pins the edge classification for every call
// shape the resolver distinguishes. Each case declares a caller A and
// asserts A's outgoing edges in source order.
func TestCallGraphResolution(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // edges of fixture.A in order
	}{
		{
			name: "direct function call",
			src: `package fixture
func A() { B() }
func B() {}
`,
			want: []string{"static fixture.B"},
		},
		{
			name: "method on concrete value receiver",
			src: `package fixture
type T struct{}
func (T) M() {}
func A() { var t T; t.M() }
`,
			want: []string{"static fixture.(T).M"},
		},
		{
			name: "method on pointer receiver via addressable value",
			src: `package fixture
type T struct{}
func (t *T) P() {}
func A() { var t T; t.P() }
`,
			want: []string{"static fixture.(*T).P"},
		},
		{
			name: "method promoted through embedding",
			src: `package fixture
type Inner struct{}
func (Inner) M() {}
type Outer struct{ Inner }
func A() { var o Outer; o.M() }
`,
			want: []string{"static fixture.(Inner).M"},
		},
		{
			name: "interface dispatch is unknown, not dropped",
			src: `package fixture
type I interface{ M() }
func A(i I) { i.M() }
`,
			want: []string{"unknown"},
		},
		{
			name: "call through function-typed parameter is unknown",
			src: `package fixture
func A(f func()) { f() }
`,
			want: []string{"unknown"},
		},
		{
			name: "call through stored method value is unknown",
			src: `package fixture
type T struct{}
func (T) M() {}
func A() { var t T; m := t.M; m() }
`,
			want: []string{"unknown"},
		},
		{
			name: "single-assignment local closure resolves without tainting",
			src: `package fixture
func A() { f := func() { B() }; f() }
func B() {}
`,
			// f() produces no edge of its own; the literal's B() call is
			// attributed to A.
			want: []string{"static fixture.B"},
		},
		{
			name: "reassigned closure variable taints back to unknown",
			src: `package fixture
func A(cond bool) {
	f := func() {}
	if cond {
		f = func() {}
	}
	f()
}
`,
			want: []string{"unknown"},
		},
		{
			name: "address-taken closure variable taints back to unknown",
			src: `package fixture
func A() {
	f := func() {}
	rebind(&f)
	f()
}
func rebind(p *func()) {}
`,
			want: []string{"static fixture.rebind", "unknown"},
		},
		{
			name: "immediately-invoked literal contributes body edges only",
			src: `package fixture
func A() { func() { B() }() }
func B() {}
`,
			want: []string{"static fixture.B"},
		},
		{
			name: "generic instantiation resolves the underlying function",
			src: `package fixture
func G[T any](x T) {}
func A() { G[int](1) }
`,
			want: []string{"static fixture.G"},
		},
		{
			name: "conversions and builtins produce no edges",
			src: `package fixture
type F float64
func A(xs []int) int {
	_ = F(1)
	xs = append(xs, 0)
	return len(xs)
}
`,
			want: nil,
		},
		{
			name: "stdlib call is external with package path and name",
			src: `package fixture
import "time"
func A() { time.Sleep(0) }
`,
			want: []string{"external time.Sleep"},
		},
		{
			name: "stdlib method on a concrete value is external",
			src: `package fixture
import "strings"
func A() string { var b strings.Builder; b.WriteString("x"); return b.String() }
`,
			want: []string{"external strings.WriteString", "external strings.String"},
		},
		{
			name: "interface method promoted through embedding is unknown",
			src: `package fixture
type I interface{ M() }
type S struct{ I }
func A(s S) { s.M() }
`,
			want: []string{"unknown"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildFixtureGraph(t, fixtureSource{
				"mpgraph/internal/core/fixture", "internal/core/fixture/cg.go", tc.src,
			})
			n := g.NodeByName("fixture.A")
			if n == nil {
				t.Fatal("node fixture.A not found")
			}
			got := edgeStrings(n)
			if len(got) != len(tc.want) {
				t.Fatalf("edges = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("edge %d = %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestCallGraphCrossPackage assembles two fixture packages where one
// imports the other and asserts the call resolves to a static edge
// into the imported package's node.
func TestCallGraphCrossPackage(t *testing.T) {
	g := buildFixtureGraph(t,
		fixtureSource{
			"mpgraph/internal/core/fixture/dep", "internal/core/fixture/dep/dep.go", `package dep
func Helper() {}
`,
		},
		fixtureSource{
			"mpgraph/internal/core/fixture", "internal/core/fixture/use.go", `package fixture
import "mpgraph/internal/core/fixture/dep"
func A() { dep.Helper() }
`,
		},
	)
	n := g.NodeByName("fixture.A")
	if n == nil {
		t.Fatal("node fixture.A not found")
	}
	got := edgeStrings(n)
	if len(got) != 1 || got[0] != "static dep.Helper" {
		t.Fatalf("edges = %v, want [static dep.Helper]", got)
	}
	if callee := g.NodeByName("dep.Helper"); callee == nil {
		t.Error("imported package's function has no node of its own")
	}
}

// TestReachHandlesCycles: mutual recursion terminates and both nodes
// land in the closure.
func TestReachHandlesCycles(t *testing.T) {
	g := buildFixtureGraph(t, fixtureSource{
		"mpgraph/internal/core/fixture", "internal/core/fixture/cycle.go", `package fixture
func A(n int) { if n > 0 { B(n - 1) } }
func B(n int) { if n > 0 { A(n - 1) } }
`,
	})
	roots := []*FuncNode{g.NodeByName("fixture.A")}
	visited := g.Reach("hotpathprop", roots, nil)
	if len(visited) != 2 {
		t.Fatalf("closure has %d nodes, want 2 (A and B)", len(visited))
	}
	if _, ok := visited[g.NodeByName("fixture.B")]; !ok {
		t.Error("B not reached through the cycle")
	}
}

// TestReachChain reconstructs the shortest root-first call chain.
func TestReachChain(t *testing.T) {
	g := buildFixtureGraph(t, fixtureSource{
		"mpgraph/internal/core/fixture", "internal/core/fixture/chain.go", `package fixture
func A() { B() }
func B() { C() }
func C() {}
`,
	})
	visited := g.Reach("hotpathprop", []*FuncNode{g.NodeByName("fixture.A")}, nil)
	got := Chain(visited, g.NodeByName("fixture.C"))
	want := "fixture.A → fixture.B → fixture.C"
	if got != want {
		t.Errorf("Chain = %q, want %q", got, want)
	}
}

// TestReachEdgePruning: an //mpg:lint-ignore directive for the
// traversing analyzer at the call-site line removes the edge from the
// closure and surfaces it through the pruned callback; other
// analyzers' closures keep the edge.
func TestReachEdgePruning(t *testing.T) {
	g := buildFixtureGraph(t, fixtureSource{
		"mpgraph/internal/core/fixture", "internal/core/fixture/prune.go", `package fixture
func A() {
	B() //mpg:lint-ignore hotpathprop out-of-band boundary for the test
}
func B() {}
`,
	})
	var prunedTargets []string
	visited := g.Reach("hotpathprop", []*FuncNode{g.NodeByName("fixture.A")},
		func(from *FuncNode, e *CallEdge, reason string) {
			prunedTargets = append(prunedTargets, from.Name+" → "+e.Target()+" ("+reason+")")
		})
	if _, ok := visited[g.NodeByName("fixture.B")]; ok {
		t.Error("pruned edge still entered the closure")
	}
	if len(prunedTargets) != 1 || !strings.Contains(prunedTargets[0], "fixture.A → fixture.B") {
		t.Errorf("pruned callback saw %v, want one fixture.A → fixture.B entry", prunedTargets)
	}
	// The directive names hotpathprop only: detreach's closure keeps
	// descending through the edge.
	other := g.Reach("detreach", []*FuncNode{g.NodeByName("fixture.A")}, nil)
	if _, ok := other[g.NodeByName("fixture.B")]; !ok {
		t.Error("a hotpathprop directive pruned the detreach closure")
	}
}

// TestUnknownCallCount: the conservatism trend metric counts dynamic
// edges.
func TestUnknownCallCount(t *testing.T) {
	g := buildFixtureGraph(t, fixtureSource{
		"mpgraph/internal/core/fixture", "internal/core/fixture/count.go", `package fixture
type I interface{ M() }
func A(i I, f func()) { i.M(); f(); B() }
func B() {}
`,
	})
	if g.UnknownCalls != 2 {
		t.Errorf("UnknownCalls = %d, want 2", g.UnknownCalls)
	}
	if got := g.EdgeCount(EdgeStatic); got != 1 {
		t.Errorf("EdgeCount(static) = %d, want 1", got)
	}
}
