package analysis

import (
	"strings"
	"testing"
)

const hotFixture = "mpgraph/internal/sim/fixture"

func TestHotPathAllocFlagsAllocatingConstructs(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, hotFixture, "internal/sim/fixture/hot.go", `
package fixture

import "fmt"

type node struct{ next *node }

//mpg:hotpath
func Hot(n int) int {
	buf := make([]float64, n)
	buf = append(buf, 1)
	head := &node{}
	f := func() int { return n }
	ids := []int{1, 2}
	fmt.Println(n)
	_ = buf
	_ = head
	_ = ids
	return f()
}
`)
	wantOutstanding(t, res,
		"fixture.Hot: make allocates",
		"fixture.Hot: append allocates",
		"fixture.Hot: &composite literal escapes to the heap",
		"fixture.Hot: closure environment may be heap-allocated",
		"fixture.Hot: slice literal allocates backing storage",
		"fixture.Hot: fmt.Println allocates and boxes its operands",
	)
}

func TestHotPathAllocFlagsInterfaceBoxing(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, hotFixture, "internal/sim/fixture/box.go", `
package fixture

type point struct{ x, y float64 }

func sink(v interface{}) {}

//mpg:hotpath
func Box(p point, pp *point) interface{} {
	sink(p)  // boxes: concrete value into interface parameter
	sink(pp) // pointer fits in the interface word: no boxing
	var out interface{}
	out = p
	return out
}
`)
	wantOutstanding(t, res,
		"fixture.Box: implicit interface conversion boxes a value on the heap; pass a pointer",
		"fixture.Box: implicit interface conversion boxes a value on the heap; store a pointer",
	)
}

func TestHotPathAllocIgnoresUnannotatedAndValueLiterals(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, hotFixture, "internal/sim/fixture/cold.go", `
package fixture

type pair struct{ a, b int }

func Cold(n int) []int {
	return make([]int, n) // not reachable from a hot path: allocation is fine
}

//mpg:hotpath
func HotValue(n int) int {
	p := pair{a: n, b: n} // struct *value* literal: no heap allocation
	return p.a + p.b
}
`)
	wantOutstanding(t, res)
}

func TestHotPathAllocSuppressionCoversMultilineStatement(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, hotFixture, "internal/sim/fixture/supp.go", `
package fixture

type result struct {
	delays  []float64
	regions map[string]float64
}

//mpg:hotpath
func Finish(n int) *result {
	//mpg:lint-ignore hotpathprop the returned result is the one documented allocation group, AllocsPerRun-guarded
	res := &result{
		delays:  make([]float64, n),
		regions: make(map[string]float64, 4),
	}
	return res
}
`)
	// One standalone directive covers the whole multi-line composite
	// literal: the &literal and both makes inside it.
	wantOutstanding(t, res)
	wantSuppressed(t, res, 3)
}

// An annotated root that delegates its allocation to an unannotated
// helper: the call is followed and the helper's make is reported with
// the full chain.
func TestHotPathPropCatchesCalleeAlloc(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/prop.go", `package fixture

//mpg:hotpath
func Root(n int) []float64 {
	return helper(n)
}

func helper(n int) []float64 {
	return make([]float64, n)
}
`)
	wantOutstanding(t, res, "fixture.Root → fixture.helper: make allocates")
}

// TestHotPathPropCatchesCalleeBoxing: the boxing check runs on every
// function the roots reach, annotated or not.
func TestHotPathPropCatchesCalleeBoxing(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, hotFixture, "internal/sim/fixture/calleebox.go", `package fixture

type sample struct{ at, delay float64 }

func record(v any) {}

//mpg:hotpath
func Root(s sample) { forward(s) }

func forward(s sample) { record(s) }
`)
	wantOutstanding(t, res, "fixture.Root → fixture.forward: implicit interface conversion boxes a value on the heap; pass a pointer")
}

// TestHotPathPropTransitiveChain: the chain in the finding spans every
// intermediate hop, not just the immediate caller.
func TestHotPathPropTransitiveChain(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/deep.go", `package fixture

//mpg:hotpath
func Root() { mid() }

func mid() { leaf() }

func leaf() []int {
	xs := []int{1}
	return append(xs, 2)
}
`)
	wantOutstanding(t, res,
		"fixture.Root → fixture.mid → fixture.leaf: slice literal allocates backing storage",
		"fixture.Root → fixture.mid → fixture.leaf: append allocates",
	)
}

// TestHotPathPropUnknownEdgeGates: a dynamic call from the closure
// cannot be proven allocation-free, so it taints rather than
// vanishing.
func TestHotPathPropUnknownEdgeGates(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/dyn.go", `package fixture

type sampler interface{ sample() float64 }

//mpg:hotpath
func Root(s sampler) float64 { return s.sample() }
`)
	wantOutstanding(t, res, "dynamic call (interface or function value) cannot be proven allocation-free")
}

// TestHotPathPropExternalCalls: fmt and reflect gate everywhere on
// the closure.
func TestHotPathPropExternalCalls(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/ext.go", `package fixture

import (
	"fmt"
	"reflect"
)

//mpg:hotpath
func Root(v any) string {
	_ = reflect.TypeOf(v)
	return describe(v)
}

func describe(v any) string { return fmt.Sprintf("%v", v) }
`)
	wantOutstanding(t, res,
		"fixture.Root: reflect.TypeOf reaches the hot path",
		"fixture.Root → fixture.describe: fmt.Sprintf allocates and boxes its operands",
	)
}

// TestHotPathPropEdgePruneStopsSubtree: a justified directive on the
// call site prunes the whole subtree behind it, leaving only the
// always-suppressed audit diagnostic.
func TestHotPathPropEdgePruneStopsSubtree(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/boundary.go", `package fixture

//mpg:hotpath
func Root() {
	//mpg:lint-ignore hotpathprop out-of-band observation boundary; nothing feeds back into the replay
	observe()
}

func observe() { _ = make([]int, 8) }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("pruned subtree still gates:\n%s", formatDiags(out))
	}
	var audits int
	for _, d := range res.Diagnostics {
		if d.Suppressed && strings.Contains(d.Message, "hot-path propagation stops at the call to fixture.observe") {
			audits++
		}
	}
	if audits != 1 {
		t.Errorf("want exactly one suppressed boundary audit, got %d:\n%s", audits, formatDiags(res.Diagnostics))
	}
}

// TestHotPathPropAnnotatedCalleeReportedOnce: an annotated callee is a
// root of its own, so its allocation is reported once, under its own
// name, not again through the caller's chain.
func TestHotPathPropAnnotatedCalleeReportedOnce(t *testing.T) {
	res := runFixture(t, HotPathPropAnalyzer, "mpgraph/internal/core/fixture", "internal/core/fixture/annotated.go", `package fixture

//mpg:hotpath
func Root(n int) []float64 { return helper(n) }

//mpg:hotpath
func helper(n int) []float64 { return make([]float64, n) }
`)
	wantOutstanding(t, res, "fixture.helper: make allocates")
}
