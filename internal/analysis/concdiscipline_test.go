package analysis

import "testing"

// concScope nests the fixtures under the parallel package so the
// scoped rules apply.
const concScope = "mpgraph/internal/parallel/fixture"

func TestConcLockCopyValueReceiver(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/recv.go", `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func (g guarded) read() int { return g.n }
`)
	wantOutstanding(t, res, "method read copies its receiver guarded, which contains sync.Mutex (field mu); use a pointer receiver")
}

func TestConcLockCopyAssignment(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/assign.go", `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func dup(g *guarded) int {
	c := *g
	return c.n
}
`)
	wantOutstanding(t, res, "assignment copies guarded, which contains sync.Mutex (field mu); share a *guarded instead")
}

// TestConcLockCopyTransitive: lock-bearing propagates through struct
// nesting — copying a wrapper that embeds a guarded struct is the
// same bug one level up.
func TestConcLockCopyTransitive(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/wrap.go", `package fixture

import "sync"

type guarded struct {
	wg sync.WaitGroup
}

type wrapper struct {
	g guarded
	n int
}

func dup(w *wrapper) int {
	c := *w
	return c.n
}
`)
	wantOutstanding(t, res, "assignment copies wrapper, which contains sync.WaitGroup (field wg) via field g guarded")
}

func TestConcLockCopyRangeValue(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/range.go", `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
}

func visit(gs []guarded) {
	for _, g := range gs {
		_ = g
	}
}
`)
	wantOutstanding(t, res,
		"range value copies guarded, which contains sync.Mutex (field mu); iterate by index and take a pointer",
		"assignment copies guarded, which contains sync.Mutex (field mu); share a *guarded instead",
	)
}

// TestConcLockThroughAliasAndArray: lock-bearing is decided by type,
// so a lock held through a type alias or in a fixed-size array of
// atomics is found like a plain field.
func TestConcLockThroughAliasAndArray(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/alias.go", `package fixture

import (
	"sync"
	"sync/atomic"
)

type mu = sync.Mutex

type aliased struct {
	m mu
}

type counters struct {
	hits [2]atomic.Int64
}

func (a aliased) read() {}

func (c counters) read() {}
`)
	wantOutstanding(t, res,
		"method read copies its receiver aliased, which contains sync.Mutex (field m); use a pointer receiver",
		"method read copies its receiver counters, which contains atomic.Int64 (field hits); use a pointer receiver",
	)
}

// TestConcLockConstructionIsLegal: composite literals and call
// results initialize, they don't copy shared state.
func TestConcLockConstructionIsLegal(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/ctor.go", `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func fresh() guarded { return guarded{} }

func build() *guarded {
	g := guarded{n: 1}
	return &g
}
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("construction sites must stay legal:\n%s", formatDiags(out))
	}
}

func TestConcAtomicMixedWithPlainWrite(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/atomic.go", `package fixture

import "sync/atomic"

type counter struct {
	n int64
}

func (c *counter) inc() { atomic.AddInt64(&c.n, 1) }

func (c *counter) resetBadly() { c.n = 0 }

func (c *counter) bumpBadly() { c.n++ }
`)
	wantOutstanding(t, res,
		"plain write to n, which is accessed via sync/atomic elsewhere; every access must go through sync/atomic",
		"plain ++ of n, which is accessed via sync/atomic elsewhere; every access must go through sync/atomic",
	)
}

func TestConcGoroutineLoopVarCapture(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/loop.go", `package fixture

func spawn(xs []int) {
	for i := range xs {
		go func() {
			_ = i
		}()
	}
}
`)
	wantOutstanding(t, res, "goroutine closure captures loop variable i; pass it as a call argument so the per-iteration ownership is explicit")
}

func TestConcGoroutineCapturedWrite(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/capture.go", `package fixture

func race() int {
	total := 0
	go func() {
		total = 1
	}()
	return total
}
`)
	wantOutstanding(t, res, "goroutine closure writes to captured variable total; return the value over a channel or give each goroutine an owned slot")
}

// TestConcGoroutineIndexedWriteSuppressible: writes through a captured
// slice get the rank-ownership phrasing, and the documented ownership
// argument suppresses them in place (the owned-slot pattern).
func TestConcGoroutineIndexedWriteSuppressible(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/owned.go", `package fixture

func fanOut(out []float64) {
	go func() {
		out[0] = 1 // flagged: ownership not documented
	}()
	go func() {
		//mpg:lint-ignore concdiscipline worker 1 owns index 1 exclusively; disjoint rank ownership
		out[1] = 2
	}()
}
`)
	wantOutstanding(t, res, "goroutine closure writes through captured out; if each goroutine owns a disjoint index range, suppress with the ownership argument")
	wantSuppressed(t, res, 1)
}

// TestConcHotPathSend: rule 5 rides the call graph — the send is two
// hops from the annotated root.
func TestConcHotPathSend(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, concScope, "internal/parallel/fixture/send.go", `package fixture

//mpg:hotpath
func hotLoop(ch chan int) {
	for i := 0; i < 8; i++ {
		emit(ch, i)
	}
}

func emit(ch chan int, v int) { ch <- v }
`)
	wantOutstanding(t, res, "fixture.hotLoop → fixture.emit: channel send on the hot path blocks on the receiver; buffer the result in an owned slot and publish after the loop")
}

// TestConcScopeExcludesOtherPackages: rules 1–4 apply only to the
// packages that run replays concurrently; the same copy elsewhere is
// out of scope.
func TestConcScopeExcludesOtherPackages(t *testing.T) {
	res := runFixture(t, ConcDisciplineAnalyzer, "mpgraph/internal/obsv/fixture", "internal/obsv/fixture/copy.go", `package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
}

func (g guarded) bad() {}
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("out-of-scope package must not be linted by rules 1-4:\n%s", formatDiags(out))
	}
}
