package core

import (
	"strings"
	"testing"
	"testing/quick"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// TestQuickAnalyzerNeverPanicsOnCorruptTraces mutates valid traces at
// random — swapped peers, retagged messages, dropped records, resized
// collectives, reassigned request ids — and requires the analyzer to
// either produce a result or return an error: never panic (corrupt
// input is an expected condition for a trace tool; §4.3 requires
// detectable inconsistency, not crashes).
func TestQuickAnalyzerNeverPanicsOnCorruptTraces(t *testing.T) {
	prop := func(seed uint64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("seed %#x panicked: %v", seed, r)
				ok = false
			}
		}()
		rng := dist.NewRNG(seed)
		set := corruptedSet(t, rng)
		_, _ = Analyze(set, &Model{
			OSNoise:    dist.Constant{C: 10},
			MsgLatency: dist.Constant{C: 10},
		}, Options{MaxWindow: 10_000})
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// corruptedSet builds a valid multi-pattern trace and applies random
// record-level mutations that keep each record individually valid.
func corruptedSet(t *testing.T, rng *dist.RNG) *trace.Set {
	t.Helper()
	n := 2 + rng.Intn(4)
	set := traceWorkload(t, machine.Config{NRanks: n, Seed: rng.Uint64()},
		ring(2+rng.Intn(3), 64, 500))
	mems := make([]*trace.MemTrace, n)
	for r := 0; r < n; r++ {
		m, err := trace.ReadAll(set.Rank(r))
		if err != nil {
			t.Fatal(err)
		}
		mems[r] = m
	}
	// Apply 1..6 mutations.
	for k := 0; k < 1+rng.Intn(6); k++ {
		m := mems[rng.Intn(n)]
		if len(m.Records) == 0 {
			continue
		}
		i := rng.Intn(len(m.Records))
		rec := &m.Records[i]
		switch rng.Intn(6) {
		case 0: // retarget a point-to-point event
			if rec.Kind.IsPointToPoint() {
				rec.Peer = int32(rng.Intn(n))
			}
		case 1: // retag
			rec.Tag = int32(rng.Intn(5))
		case 2: // drop the record
			m.Records = append(m.Records[:i], m.Records[i+1:]...)
		case 3: // inflate a collective's expected size
			if rec.Kind.IsCollective() {
				rec.CommSize = int32(1 + rng.Intn(2*n))
			}
		case 4: // reassign a request id
			if rec.Req != 0 {
				rec.Req = uint64(1 + rng.Intn(10))
			}
		case 5: // duplicate the record (at the same position; keeps
			// per-rank time order only if zero-duration — accept the
			// chance of an overlap error, that's a valid outcome)
			dup := *rec
			m.Records = append(m.Records[:i], append([]trace.Record{dup}, m.Records[i:]...)...)
		}
	}
	out, err := trace.SetFromMem(mems)
	if err != nil {
		// Setwise corruption (should not happen here — headers intact).
		t.Fatal(err)
	}
	return out
}

// TestAnalyzerErrorsAreDescriptive spot-checks that common corruption
// modes yield actionable error text.
func TestAnalyzerErrorsAreDescriptive(t *testing.T) {
	mkPair := func(mutate func(sets [][]trace.Record)) error {
		send := rec(trace.KindSend, 100, 300)
		send.Peer, send.Bytes = 1, 10
		recv := rec(trace.KindRecv, 100, 300)
		recv.Peer, recv.Bytes = 0, 10
		perRank := [][]trace.Record{
			{rec(trace.KindInit, 0, 10), send, rec(trace.KindFinalize, 400, 400)},
			{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 400, 400)},
		}
		mutate(perRank)
		set := mkset(t, perRank...)
		_, err := Analyze(set, &Model{}, Options{})
		return err
	}

	if err := mkPair(func([][]trace.Record) {}); err != nil {
		t.Fatalf("control pair failed: %v", err)
	}

	for name, tc := range map[string]struct {
		mutate func([][]trace.Record)
		want   string
	}{
		"dropped receiver": {
			func(s [][]trace.Record) { s[1] = append(s[1][:1], s[1][2:]...) },
			"not self-consistent",
		},
		"mismatched tag": {
			func(s [][]trace.Record) { s[1][1].Tag = 9 },
			"not self-consistent",
		},
	} {
		err := mkPair(tc.mutate)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q missing %q", name, err, tc.want)
		}
	}
}

// TestNonFiniteDelaysAreRejected: a perturbation that overflows float64
// fails both engines with the same error, naming the offending value,
// instead of reporting an infinite or NaN delay.
func TestNonFiniteDelaysAreRejected(t *testing.T) {
	snap := snapWorkload(t, "tokenring", 4, workloads.Options{Iterations: 2})
	c, err := Compile(snap.Set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"lognormal:800,1", "exponential:1e308", "scaled:1e308,constant:1e308"} {
		noise, err := dist.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		model := &Model{Seed: 1, OSNoise: noise}
		_, serr := Analyze(snap.Set(), model, Options{})
		_, cerr := ReplayCompiled(c, model, Options{})
		if serr == nil || cerr == nil {
			t.Errorf("%s: streaming error %v, compiled error %v; want both to reject", spec, serr, cerr)
			continue
		}
		if !strings.Contains(serr.Error(), "overflows float64") || serr.Error() != cerr.Error() {
			t.Errorf("%s: streaming error %q, compiled error %q", spec, serr, cerr)
		}
	}
}
