package analysis

import (
	"strings"
	"testing"
)

// The detreach fixtures type-check under the real root import path
// and filenames, because rooting is exact: ReplayCompiled in
// mpgraph/internal/core, or any function declared in
// internal/core/compute.go.

func TestDetReachWallClock(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "time"

func ReplayCompiled() int64 { return helper() }

func helper() int64 { return stamp() }

func stamp() int64 { return time.Now().UnixNano() }
`)
	wantOutstanding(t, res, "core.ReplayCompiled → core.helper → core.stamp: time.Now on a replay-reachable path")
}

func TestDetReachGlobalRand(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "math/rand"

func ReplayCompiled() float64 { return jitter() }

func jitter() float64 { return rand.Float64() }
`)
	wantOutstanding(t, res, "core.ReplayCompiled → core.jitter: math/rand.Float64 on a replay-reachable path; randomness must flow through seeded mpgraph/internal/dist generators")
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
	wantOutstanding(t, res, "core.ReplayCompiled → core.total: map iteration order is nondeterministic on a replay-reachable path")
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
		"core.ReplayCompiled → core.bump: write to package-level variable replayCount on a replay-reachable path",
	)
}

// TestDetReachComputeFileRoots: every function declared in
// internal/core/compute.go is a root by file, with no name matching.
func TestDetReachComputeFileRoots(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/compute.go", `package core

import "time"

func anyKernel() int64 { return time.Now().UnixNano() }
`)
	wantOutstanding(t, res, "core.anyKernel: time.Now on a replay-reachable path")
}

// TestDetReachOracleRoots: the baseline DES oracle is rooted too —
// a nondeterministic oracle would silently vouch for a broken replay.
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
// subtree; the walk stops there with a suppressed audit entry.
func TestDetReachEdgePrune(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "time"

func ReplayCompiled() {
	//mpg:lint-ignore detreach out-of-band metrics boundary; timestamps never feed back into replay results
	recordWallClock()
}

func recordWallClock() { _ = time.Now() }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("pruned subtree still gates:\n%s", formatDiags(out))
	}
	var audits int
	for _, d := range res.Diagnostics {
		if d.Suppressed && strings.Contains(d.Message, "determinism verification stops at the call to core.recordWallClock") {
			audits++
		}
	}
	if audits != 1 {
		t.Errorf("want one suppressed boundary audit, got %d:\n%s", audits, formatDiags(res.Diagnostics))
	}
}

// TestDetReachUnreachableIsSilent: the same violations outside the
// replay closure are not detreach's findings (the file-local nondet
// analyzer owns its statically scoped packages).
func TestDetReachUnreachableIsSilent(t *testing.T) {
	res := runFixture(t, DetReachAnalyzer, "mpgraph/internal/core", "internal/core/det_fixture.go", `package core

import "time"

func unreachableTool() int64 { return time.Now().UnixNano() }
`)
	if out := res.Outstanding(); len(out) != 0 {
		t.Fatalf("function outside the replay closure must not gate:\n%s", formatDiags(out))
	}
}
