package analysis

import (
	"strings"
	"testing"
)

// detScope is a fixture package inside the deterministic scope: every
// function declared in it is a detreach root.
const detScope = "mpgraph/internal/core/fixture"

// TestDetReachWallClock: a clock read two calls deep in a package
// outside the scope is reached from the scope and reported with the
// full chain.
func TestDetReachWallClock(t *testing.T) {
	res := runFixtures(t, DetReachAnalyzer,
		fixtureSource{"mpgraph/internal/util/fixture", "internal/util/fixture/clock.go", `package fixture

import "time"

func Helper() int64 { return stamp() }

func stamp() int64 { return time.Now().UnixNano() }
`},
		fixtureSource{"mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "mpgraph/internal/util/fixture"

func ReplayCompiled() int64 { return fixture.Helper() }
`})
	wantOutstanding(t, res, "core.ReplayCompiled → fixture.Helper → fixture.stamp: time.Now on a replay-reachable path")
}

func TestDetReachGlobalRand(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "math/rand"

func ReplayCompiled() float64 { return jitter() }

func jitter() float64 { return rand.Float64() }
`)
	wantOutstanding(t, res, "core.jitter: math/rand.Float64 on a replay-reachable path; randomness must flow through seeded mpgraph/internal/dist generators")
}

func TestDetReachMapRange(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

func ReplayCompiled(m map[int]float64) float64 {
	return total(m)
}

func total(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}
`)
	wantOutstanding(t, res, "core.total: map iteration order is nondeterministic on a replay-reachable path")
}

func TestDetReachPackageLevelWrite(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

var replayCount int

func ReplayCompiled() {
	replayCount++
	bump()
}

func bump() { replayCount = replayCount + 1 }
`)
	wantOutstanding(t, res,
		"core.ReplayCompiled: write to package-level variable replayCount on a replay-reachable path",
		"core.bump: write to package-level variable replayCount on a replay-reachable path",
	)
}

// TestDetReachComputeFileRoots: every function declared in a
// deterministic-scope package is a root, with no name matching; the
// shared kernels in compute.go need no list of their own.
func TestDetReachComputeFileRoots(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/compute.go", `package core

import "time"

func anyKernel() int64 { return time.Now().UnixNano() }
`)
	wantOutstanding(t, res, "core.anyKernel: time.Now on a replay-reachable path")
}

// TestDetReachOracleRoots: the baseline DES oracle is in the scope
// too — a nondeterministic oracle would silently vouch for a broken
// replay.
func TestDetReachOracleRoots(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/baseline", "internal/baseline/det_fixture.go", `package baseline

import "time"

func Replay() int64 { return time.Now().UnixNano() }
`)
	wantOutstanding(t, res, "baseline.Replay: time.Now on a replay-reachable path")
}

// TestDetReachDynamicCallIsAdvisory: unverifiable dispatch surfaces at
// info severity — visible, never gating. This is detreach's documented
// conservatism trade-off (hotpathprop gates on the same edge shape).
func TestDetReachDynamicCallIsAdvisory(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

type hook interface{ observe(float64) }

func ReplayCompiled(h hook) { h.observe(1) }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("dynamic calls must advise, not gate:\n%s", formatDiags(out))
	}
	var infos int
	for _, d := range res.Diagnostics {
		if d.Severity == SeverityInfo && strings.Contains(d.Message, "determinism cannot be verified through it") {
			infos++
		}
	}
	if infos != 1 {
		t.Errorf("want one dynamic-call advisory, got %d:\n%s", infos, formatDiags(res.Diagnostics))
	}
}

// TestDetReachEdgePrune: a justified directive vouches for the
// subtree behind a call out of the scope; the walk stops there with a
// suppressed audit entry.
func TestDetReachEdgePrune(t *testing.T) {
	res := runFixtures(t, DetReachAnalyzer, obsvFixture, fixtureSource{"mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "mpgraph/internal/obsv/fixture"

func ReplayCompiled() {
	//mpg:lint-ignore detreach out-of-band metrics boundary; timestamps never feed back into replay results
	fixture.RecordWallClock()
}
`})
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("pruned subtree still gates:\n%s", formatDiags(out))
	}
	var audits int
	for _, d := range res.Diagnostics {
		if d.Suppressed && strings.Contains(d.Message, "determinism verification stops at the call to fixture.RecordWallClock") {
			audits++
		}
	}
	if audits != 1 {
		t.Errorf("want one suppressed boundary audit, got %d:\n%s", audits, formatDiags(res.Diagnostics))
	}
}

// obsvFixture is a package outside the deterministic scope that reads
// the wall clock; only calls from the scope make it detreach's concern.
var obsvFixture = fixtureSource{"mpgraph/internal/obsv/fixture", "internal/obsv/fixture/clock.go", `package fixture

import "time"

func RecordWallClock() { _ = time.Now() }
`}

// TestDetReachUnreachableIsSilent: the same violations outside the
// scope and out of its reach are not detreach's findings.
func TestDetReachUnreachableIsSilent(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/sweep/fixture", "internal/sweep/fixture/det_fixture.go", `package fixture

import "time"

func unreachableTool() int64 { return time.Now().UnixNano() }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("function outside the deterministic closure must not gate:\n%s", formatDiags(out))
	}
}

func TestNondetFlagsClockRandAndMapRange(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, detScope, "internal/core/fixture/bad.go", `
package fixture

import (
	"math/rand"
	"time"
)

func Bad(m map[int]float64) float64 {
	start := time.Now()
	_ = start
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum + rand.Float64()
}
`)
	wantOutstanding(t, res,
		"fixture.Bad: time.Now on a replay-reachable path",
		"fixture.Bad: map iteration order is nondeterministic",
		"fixture.Bad: math/rand.Float64 on a replay-reachable path",
	)
}

func TestNondetAllowsCollectThenSort(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, detScope, "internal/core/fixture/good.go", `
package fixture

import "sort"

func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
`)
	wantOutstanding(t, res)
}

func TestNondetOutsideScope(t *testing.T) {
	// The observability layer may read the clock.
	res := runFixtures(t, DetReachAnalyzer, obsvFixture)
	wantOutstanding(t, res)
}

func TestNondetSuppression(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, detScope, "internal/core/fixture/supp.go", `
package fixture

func Sum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { //mpg:lint-ignore detreach demonstration fixture: order-insensitive max
		if v > sum {
			sum = v
		}
	}
	return sum
}
`)
	wantOutstanding(t, res)
	wantSuppressed(t, res, 1)
}
