package core

import (
	"math"
	"strings"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
)

// mkset builds a trace.Set from per-rank record slices.
func mkset(t *testing.T, perRank ...[]trace.Record) *trace.Set {
	t.Helper()
	n := len(perRank)
	mems := make([]*trace.MemTrace, n)
	for r, recs := range perRank {
		mems[r] = &trace.MemTrace{
			Hdr:     trace.Header{Rank: r, NRanks: n},
			Records: recs,
		}
	}
	set, err := trace.SetFromMem(mems)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func wantDelay(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s: delay = %g, want %g", name, got, want)
	}
}

// rec builds a record with the defaults the builder expects.
func rec(k trace.Kind, begin, end int64) trace.Record {
	return trace.Record{Kind: k, Begin: begin, End: end, Peer: trace.NoRank, Root: trace.NoRank}
}

// blockingPairSet is the canonical Fig. 2 trace: rank 0 sends d bytes
// to rank 1 with blocking primitives.
func blockingPairSet(t *testing.T, d int64) *trace.Set {
	send := rec(trace.KindSend, 100, 300)
	send.Peer, send.Tag, send.Bytes = 1, 5, d
	recv := rec(trace.KindRecv, 50, 300)
	recv.Peer, recv.Tag, recv.Bytes = 0, 5, d
	return mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), send, rec(trace.KindFinalize, 400, 400)},
		[]trace.Record{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 400, 400)},
	)
}

func TestZeroModelZeroDelays(t *testing.T) {
	res, err := Analyze(blockingPairSet(t, 1000), &Model{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, rr := range res.Ranks {
		if rr.FinalDelay != 0 {
			t.Fatalf("rank %d delay %g under zero model", rank, rr.FinalDelay)
		}
	}
	if res.Events != 6 {
		t.Fatalf("events = %d", res.Events)
	}
	if res.MaxFinalDelay != 0 || res.MakespanDelay != 0 {
		t.Fatalf("aggregate delays non-zero: %+v", res)
	}
}

// TestEq1BlockingSendRecvAdditive pins the engine against the additive
// closed form of Eq. 1 (Fig. 2) with constant deltas.
func TestEq1BlockingSendRecvAdditive(t *testing.T) {
	const (
		a  = 7.0  // OS noise per local edge
		l  = 40.0 // latency delta per message edge
		pb = 0.25 // per-byte delta
		d  = 1000 // message size
	)
	model := &Model{
		OSNoise:    dist.Constant{C: a},
		MsgLatency: dist.Constant{C: l},
		PerByte:    dist.Constant{C: pb},
	}
	res, err := Analyze(blockingPairSet(t, d), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Inbound delays at the send/recv starts: init internal edge (+a)
	// plus one compute gap (+a) on each rank.
	dSS, dRS := 2*a, 2*a
	dSE, dRE := Eq1Additive(dSS, dRS, a, a, l, pb*d, l)
	// Final delays add the gap to finalize (+a) and the finalize
	// internal edge (+a)... finalize has zero duration, so its internal
	// edge still samples one noise unit.
	wantDelay(t, "rank0 (sender)", res.Ranks[0].FinalDelay, dSE+2*a)
	wantDelay(t, "rank1 (receiver)", res.Ranks[1].FinalDelay, dRE+2*a)
}

// TestEq1SenderDelayPropagatesToReceiver checks the data-path message
// edge: a large delta on the sender's side must appear at the
// receiver's end subevent (the edge-pair requirement of Section 2).
func TestEq1SenderDelayPropagatesToReceiver(t *testing.T) {
	const l = 100000.0
	model := &Model{MsgLatency: dist.Constant{C: l}}
	res, err := Analyze(blockingPairSet(t, 1000), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// cData = 0 + l (two latency samples per pair: data and ack).
	dSE, dRE := Eq1Additive(0, 0, 0, 0, l, 0, l)
	wantDelay(t, "receiver sees data latency", res.Ranks[1].FinalDelay, dRE)
	wantDelay(t, "sender sees ack latency", res.Ranks[0].FinalDelay, dSE)
	if res.Ranks[0].FinalDelay != 2*l {
		t.Fatalf("sender delay %g, want 2l (data+ack)", res.Ranks[0].FinalDelay)
	}
}

// TestEq1Anchored pins the anchored (literal Eq. 1) mode. Deltas are
// chosen larger than the traced durations so the original-completion
// floors do not bind and the printed equation holds exactly.
func TestEq1Anchored(t *testing.T) {
	const (
		a  = 500.0
		l  = 1000.0
		pb = 1.0
		d  = 800
	)
	model := &Model{
		OSNoise:     dist.Constant{C: a},
		MsgLatency:  dist.Constant{C: l},
		PerByte:     dist.Constant{C: pb},
		Propagation: PropagationAnchored,
	}
	res, err := Analyze(blockingPairSet(t, d), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Anchored local-edge rule on init (duration 10, delta a):
	// D = max(0, a-10). Compute gap rule is unchanged (additive).
	dInit := math.Max(0, a-10)
	dSS := dInit + a // init + compute gap
	dRS := dInit + a
	dSE, dRE := Eq1Anchored(dSS, dRS, a, a, l, pb*d, l, 200, 250)
	// Tail: compute gap (+a), finalize anchored (duration 0): +a.
	wantDelay(t, "anchored sender", res.Ranks[0].FinalDelay, dSE+2*a)
	wantDelay(t, "anchored receiver", res.Ranks[1].FinalDelay, dRE+2*a)
}

// TestAnchoredAbsorbsSmallDeltas: in anchored mode a delta smaller
// than the event's traced duration disappears into it (Eq. 1's max
// with the original completion time).
func TestAnchoredAbsorbsSmallDeltas(t *testing.T) {
	model := &Model{
		MsgLatency:  dist.Constant{C: 5}, // tiny vs durations of 200+
		Propagation: PropagationAnchored,
	}
	res, err := Analyze(blockingPairSet(t, 1000), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, rr := range res.Ranks {
		if rr.FinalDelay != 0 {
			t.Fatalf("rank %d: small anchored delta not absorbed: %g", rank, rr.FinalDelay)
		}
	}
	// The same delta in additive mode does NOT disappear.
	model.Propagation = PropagationAdditive
	res, err = Analyze(blockingPairSet(t, 1000), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[1].FinalDelay == 0 {
		t.Fatal("additive mode unexpectedly absorbed the delta")
	}
}

// nonblockingPairSet is the Fig. 3 trace: isend/irecv followed by
// waits, with computation in between.
func nonblockingPairSet(t *testing.T) *trace.Set {
	isend := rec(trace.KindIsend, 100, 110)
	isend.Peer, isend.Tag, isend.Bytes, isend.Req = 1, 9, 2000, 1
	irecv := rec(trace.KindIrecv, 100, 105)
	irecv.Peer, irecv.Tag, irecv.Req = 0, 9, 1
	ws := rec(trace.KindWait, 500, 700)
	ws.Req = 1
	wr := rec(trace.KindWait, 600, 800)
	wr.Req = 1
	return mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), isend, ws, rec(trace.KindFinalize, 900, 900)},
		[]trace.Record{rec(trace.KindInit, 0, 10), irecv, wr, rec(trace.KindFinalize, 900, 900)},
	)
}

// TestEq2Nonblocking pins the nonblocking pair (Fig. 3) against the
// Eq. 2 closed form: isend/irecv ends unmodified, perturbation lands
// on the waits.
func TestEq2Nonblocking(t *testing.T) {
	const (
		a  = 11.0
		l  = 60.0
		pb = 0.5
	)
	model := &Model{
		OSNoise:    dist.Constant{C: a},
		MsgLatency: dist.Constant{C: l},
		PerByte:    dist.Constant{C: pb},
	}
	res, err := Analyze(nonblockingPairSet(t), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: init(+a), gap(+a) -> isend start 2a, isend end 2a
	// (immediate return), gap(+a) -> wait start 3a.
	// Rank 1 symmetric.
	dWS, dWR := Eq2Additive(2*a, 2*a, 3*a, 3*a, a, a, l, pb*2000, l)
	wantDelay(t, "sender wait", res.Ranks[0].FinalDelay, dWS+2*a)
	wantDelay(t, "receiver wait", res.Ranks[1].FinalDelay, dWR+2*a)
}

// TestEq2ImmediateReturn verifies that isend/irecv end subevents carry
// no perturbation even under heavy message deltas (their delay equals
// the inbound delay; everything lands on the waits).
func TestEq2ImmediateReturn(t *testing.T) {
	model := &Model{MsgLatency: dist.Constant{C: 1e6}}
	res, err := Analyze(nonblockingPairSet(t), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the waits (and everything after) are delayed.
	dWS, dWR := Eq2Additive(0, 0, 0, 0, 0, 0, 1e6, 0, 1e6)
	wantDelay(t, "sender", res.Ranks[0].FinalDelay, dWS)
	wantDelay(t, "receiver", res.Ranks[1].FinalDelay, dWR)
}

func TestRecvBeforeSendPost(t *testing.T) {
	// Receiver posts long before the sender; sender's delay must still
	// reach it through the data edge.
	send := rec(trace.KindSend, 10_000, 10_200)
	send.Peer, send.Tag, send.Bytes = 1, 0, 100
	recv := rec(trace.KindRecv, 50, 10_400)
	recv.Peer, recv.Bytes = 0, 100
	set := mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), send, rec(trace.KindFinalize, 11_000, 11_000)},
		[]trace.Record{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 11_000, 11_000)},
	)
	const l = 777.0
	res, err := Analyze(set, &Model{MsgLatency: dist.Constant{C: l}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDelay(t, "receiver", res.Ranks[1].FinalDelay, l)
	wantDelay(t, "sender", res.Ranks[0].FinalDelay, 2*l)
}

func TestFIFOMatchingSameTag(t *testing.T) {
	// Two same-tag messages of different sizes: per-byte deltas must
	// attach in posting order (non-overtaking).
	s1 := rec(trace.KindSend, 100, 200)
	s1.Peer, s1.Bytes = 1, 1000
	s2 := rec(trace.KindSend, 300, 400)
	s2.Peer, s2.Bytes = 1, 1 // negligible
	r1 := rec(trace.KindRecv, 100, 200)
	r1.Peer, r1.Bytes = 0, 1000
	r2 := rec(trace.KindRecv, 300, 400)
	r2.Peer, r2.Bytes = 0, 1
	set := mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), s1, s2, rec(trace.KindFinalize, 500, 500)},
		[]trace.Record{rec(trace.KindInit, 0, 10), r1, r2, rec(trace.KindFinalize, 500, 500)},
	)
	res, err := Analyze(set, &Model{PerByte: dist.Constant{C: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First transfer contributes 1000 cycles of per-byte delay; the
	// second only 1. If matching swapped them the totals would differ.
	wantDelay(t, "receiver", res.Ranks[1].FinalDelay, 1000+1)
}

func TestUnmatchedBlockingSendFails(t *testing.T) {
	send := rec(trace.KindSend, 100, 200)
	send.Peer, send.Bytes = 1, 10
	set := mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), send},
		[]trace.Record{rec(trace.KindInit, 0, 10), rec(trace.KindFinalize, 50, 50)},
	)
	_, err := Analyze(set, &Model{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "not self-consistent") {
		t.Fatalf("unmatched blocking send not detected: %v", err)
	}
}

func TestFireAndForgetIsendWarns(t *testing.T) {
	// Sender never waits (paper §4.3's questionable-but-possible case):
	// the analysis completes but warns.
	isend := rec(trace.KindIsend, 100, 110)
	isend.Peer, isend.Bytes, isend.Req = 1, 10, 1
	recv := rec(trace.KindRecv, 100, 300)
	recv.Peer, recv.Bytes = 0, 10
	set := mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), isend, rec(trace.KindFinalize, 400, 400)},
		[]trace.Record{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 400, 400)},
	)
	res, err := Analyze(set, &Model{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "never waits") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing §4.3 warning; warnings = %v", res.Warnings)
	}
}

func TestWaitUnknownRequestFails(t *testing.T) {
	w := rec(trace.KindWait, 100, 200)
	w.Req = 99
	set := mkset(t, []trace.Record{rec(trace.KindInit, 0, 10), w})
	_, err := Analyze(set, &Model{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown request") {
		t.Fatalf("unknown request not detected: %v", err)
	}
}

func TestOverlappingRecordsRejected(t *testing.T) {
	set := mkset(t, []trace.Record{
		rec(trace.KindInit, 0, 100),
		rec(trace.KindFinalize, 50, 60),
	})
	_, err := Analyze(set, &Model{}, Options{})
	if err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap not detected: %v", err)
	}
}

// TestOverflowingTimesRejected feeds records whose traced span, or
// whose compute gap from the previous record, does not fit in an
// int64. Both engines' front end must reject them: a wrapped span or
// gap would propagate a delay of ~9.2e18 cycles from a zero model.
func TestOverflowingTimesRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		recs []trace.Record
		want string
	}{
		"span": {
			[]trace.Record{rec(trace.KindInit, math.MinInt64, 0), rec(trace.KindFinalize, 0, 0)},
			"span [-9223372036854775808,0] overflows int64",
		},
		"gap": {
			[]trace.Record{rec(trace.KindInit, math.MinInt64, math.MinInt64), rec(trace.KindFinalize, 1, 1)},
			"compute gap before record 1 (begin 1 after the previous end -9223372036854775808) overflows int64",
		},
	} {
		_, err := Analyze(mkset(t, tc.recs), &Model{Propagation: PropagationAnchored}, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Analyze error %v, want %q", name, err, tc.want)
		}
		_, err = Compile(mkset(t, tc.recs), Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile error %v, want %q", name, err, tc.want)
		}
	}
}

// TestInvalidRecordRejected pins the trust boundary for hand-built
// traces: a MemTrace whose records were never validated still has its
// invalid record rejected, with the rank and record index, by both
// engines and through a Snapshot's sets as well as a plain Set.
func TestInvalidRecordRejected(t *testing.T) {
	send := rec(trace.KindSend, 100, 200)
	send.Peer, send.Bytes = 1, 8
	recv := rec(trace.KindRecv, 50, 200)
	recv.Peer, recv.Bytes = 0, 8
	backwards := rec(trace.KindRecv, 500, 400)
	backwards.Peer = 0
	noPeer := rec(trace.KindSend, 500, 600)
	for name, tc := range map[string]struct {
		bad  trace.Record
		want string
	}{
		"end before begin":  {backwards, "core: rank 1 record 2: trace: recv record with End 400 < Begin 500"},
		"send without peer": {noPeer, "core: rank 1 record 2: trace: send record without peer"},
	} {
		perRank := func() [][]trace.Record {
			return [][]trace.Record{
				{rec(trace.KindInit, 0, 10), send, rec(trace.KindFinalize, 700, 700)},
				{rec(trace.KindInit, 0, 10), recv, tc.bad, rec(trace.KindFinalize, 700, 700)},
			}
		}
		snapshot := func() *trace.Set {
			recs := perRank()
			mems := make([]*trace.MemTrace, len(recs))
			for r := range recs {
				mems[r] = &trace.MemTrace{Hdr: trace.Header{Rank: r, NRanks: len(recs)}, Records: recs[r]}
			}
			snap, err := trace.SnapshotFromMem(mems)
			if err != nil {
				t.Fatal(err)
			}
			return snap.Set()
		}
		for _, src := range []struct {
			name string
			set  func() *trace.Set
		}{
			{"set", func() *trace.Set { return mkset(t, perRank()...) }},
			{"snapshot", snapshot},
		} {
			_, err := Analyze(src.set(), &Model{}, Options{})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: Analyze error %v, want %q", name, src.name, err, tc.want)
			}
			_, err = Compile(src.set(), Options{})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, %s: Compile error %v, want %q", name, src.name, err, tc.want)
			}
		}
	}
}

func TestMaxWindowEnforced(t *testing.T) {
	// Rank 0 posts many isends before rank 1 receives any; a tiny
	// window must trip.
	var recs0 []trace.Record
	recs0 = append(recs0, rec(trace.KindInit, 0, 10))
	tm := int64(100)
	for i := 0; i < 50; i++ {
		is := rec(trace.KindIsend, tm, tm+10)
		is.Peer, is.Bytes, is.Req = 1, 10, uint64(i+1)
		recs0 = append(recs0, is)
		tm += 20
	}
	var recs1 []trace.Record
	recs1 = append(recs1, rec(trace.KindInit, 0, 10))
	tm = 2000
	for i := 0; i < 50; i++ {
		rv := rec(trace.KindRecv, tm, tm+10)
		rv.Peer, rv.Bytes = 0, 10
		recs1 = append(recs1, rv)
		tm += 20
	}
	recs1 = append(recs1, rec(trace.KindFinalize, tm, tm))
	set := mkset(t, recs0, recs1)
	_, err := Analyze(set, &Model{}, Options{MaxWindow: 5, Burst: 100})
	if err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("window overflow not detected: %v", err)
	}
	// With a generous window the same trace analyzes fine (with a
	// fire-and-forget warning).
	set = mkset(t, recs0, recs1)
	res, err := Analyze(set, &Model{}, Options{MaxWindow: 100, Burst: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowHighWater == 0 {
		t.Fatal("high water not tracked")
	}
}

func TestWindowHighWaterSmallForSynchronousTraffic(t *testing.T) {
	// A tightly synchronized pattern should keep the window tiny even
	// with many events.
	var recs0, recs1 []trace.Record
	recs0 = append(recs0, rec(trace.KindInit, 0, 10))
	recs1 = append(recs1, rec(trace.KindInit, 0, 10))
	tm := int64(100)
	for i := 0; i < 500; i++ {
		s := rec(trace.KindSend, tm, tm+50)
		s.Peer, s.Bytes = 1, 10
		r := rec(trace.KindRecv, tm, tm+50)
		r.Peer, r.Bytes = 0, 10
		recs0 = append(recs0, s)
		recs1 = append(recs1, r)
		tm += 100
	}
	recs0 = append(recs0, rec(trace.KindFinalize, tm, tm))
	recs1 = append(recs1, rec(trace.KindFinalize, tm, tm))
	set := mkset(t, recs0, recs1)
	res, err := Analyze(set, &Model{}, Options{Burst: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowHighWater > 10 {
		t.Fatalf("window high water %d for synchronous traffic", res.WindowHighWater)
	}
}

func TestNegativePerturbationOrderPreserved(t *testing.T) {
	// "What if the platform had less noise": negative local deltas
	// shrink delays but may never reorder events (§7 + §4.3).
	model := &Model{
		OSNoise:       dist.Constant{C: -1e6}, // absurdly negative
		AllowNegative: true,
	}
	res, err := Analyze(blockingPairSet(t, 100), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderViolations == 0 {
		t.Fatal("expected clamped order violations")
	}
	for rank, rr := range res.Ranks {
		// Final delay may be negative (a faster run) but bounded below
		// by the negated trace length.
		if rr.FinalDelay > 0 {
			t.Fatalf("rank %d: negative noise increased delay %g", rank, rr.FinalDelay)
		}
		if rr.FinalDelay < -float64(rr.OrigEnd) {
			t.Fatalf("rank %d: delay %g below physical floor", rank, rr.FinalDelay)
		}
	}
}

func TestNegativeWithoutAllowIsClamped(t *testing.T) {
	// Without AllowNegative, negative samples clamp to zero at the
	// sampler.
	model := &Model{OSNoise: dist.Constant{C: -500}}
	res, err := Analyze(blockingPairSet(t, 100), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, rr := range res.Ranks {
		if rr.FinalDelay != 0 {
			t.Fatalf("rank %d: clamped negative noise leaked: %g", rank, rr.FinalDelay)
		}
	}
}

func TestMarkersDefineRegions(t *testing.T) {
	m1 := rec(trace.KindMarker, 50, 50)
	m1.Tag = 1
	m2 := rec(trace.KindMarker, 350, 350)
	m2.Tag = 2
	send := rec(trace.KindSend, 100, 300)
	send.Peer, send.Bytes = 1, 10
	recv := rec(trace.KindRecv, 100, 300)
	recv.Peer, recv.Bytes = 0, 10
	set := mkset(t,
		[]trace.Record{rec(trace.KindInit, 0, 10), m1, send, m2, rec(trace.KindFinalize, 400, 400)},
		[]trace.Record{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 400, 400)},
	)
	res, err := Analyze(set, &Model{MsgLatency: dist.Constant{C: 10}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions[RegionKey{Rank: 0, Region: 1}] == nil {
		t.Fatal("region 1 missing")
	}
	if res.Regions[RegionKey{Rank: 0, Region: -1}] == nil {
		t.Fatal("pre-marker region missing")
	}
	keys := res.RegionList()
	if len(keys) < 3 {
		t.Fatalf("region list = %v", keys)
	}
}

func TestAbsorptionAccounting(t *testing.T) {
	// With latency deltas only, the receiver's merges are dominated by
	// the remote path (propagated); with huge local noise on the
	// receiver only... use per-rank asymmetry via trace shape instead:
	// a receiver that posts very late absorbs the sender's delay.
	res, err := Analyze(blockingPairSet(t, 100), &Model{MsgLatency: dist.Constant{C: 1e5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := res.Ranks[1]
	if r1.Propagated == 0 {
		t.Fatalf("receiver should have propagated merges: %+v", r1)
	}
	if res.Ranks[0].Propagated == 0 {
		t.Fatal("sender should see the ack path as propagated")
	}
	if r1.DelayInduced <= 0 {
		t.Fatal("no induced delay recorded")
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	model := &Model{
		Seed:       99,
		OSNoise:    dist.Exponential{MeanValue: 50},
		MsgLatency: dist.Uniform{Low: 10, High: 100},
		PerByte:    dist.Exponential{MeanValue: 0.01},
	}
	run := func() *Result {
		res, err := Analyze(blockingPairSet(t, 4096), model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for r := range a.Ranks {
		if a.Ranks[r].FinalDelay != b.Ranks[r].FinalDelay {
			t.Fatalf("rank %d delays differ across identical runs", r)
		}
	}
}

func TestNoiseQuantumScalesWithGapLength(t *testing.T) {
	// One rank, two compute gaps of very different lengths.
	set := func() *trace.Set {
		return mkset(t, []trace.Record{
			rec(trace.KindInit, 0, 0),
			rec(trace.KindMarker, 1_000, 1_000),     // gap 1000
			rec(trace.KindMarker, 101_000, 101_000), // gap 100000
			rec(trace.KindFinalize, 101_000, 101_000),
		})
	}
	model := &Model{OSNoise: dist.Constant{C: 3}, NoiseQuantum: 1000}
	res, err := Analyze(set(), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// gap1: 1 quantum -> 3; gap2: 100 quanta -> 300. Zero-length gap to
	// finalize: 0. Init and Finalize each draw one osNoise on their
	// internal edge (localEndKernel), additive: +3 each.
	wantDelay(t, "quantized noise", res.Ranks[0].FinalDelay, 3+3+300+3)
}

// TestNoiseQuantumNearMaxInt64 quantizes a compute gap of MaxInt64−1
// cycles: ceil(gap/4) = 2^61 quanta, drawn as MaxNoiseSamplesPerEdge
// samples and scaled up. A ceiling formed as gap+q−1 wraps negative
// there and drops the gap's noise entirely.
func TestNoiseQuantumNearMaxInt64(t *testing.T) {
	set := func() *trace.Set {
		return mkset(t, []trace.Record{
			rec(trace.KindInit, 0, 0),
			rec(trace.KindFinalize, math.MaxInt64-1, math.MaxInt64-1),
		})
	}
	model := &Model{OSNoise: dist.Constant{C: 1}, NoiseQuantum: 4}
	want := float64(1<<61) + 2 // the gap's quanta plus Init's and Finalize's draws
	res, err := Analyze(set(), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDelay(t, "Analyze", res.Ranks[0].FinalDelay, want)
	c, err := Compile(set(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = ReplayCompiled(c, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantDelay(t, "ReplayCompiled", res.Ranks[0].FinalDelay, want)
}

func TestModeStrings(t *testing.T) {
	for v, want := range map[interface{ String() string }]string{
		PropagationAdditive: "additive",
		PropagationAnchored: "anchored",
		PropagationMode(9):  "propagation(9)",
		CollectiveApprox:    "approx",
		CollectiveExplicit:  "explicit",
		CollectiveMode(9):   "collective(9)",
		EdgeLocal:           "local",
		EdgeMessage:         "message",
		EdgeCollective:      "collective",
		EdgeKind(9):         "edge(9)",
	} {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if (NodeRef{Rank: 2, Event: 3, End: true}).String() != "r2.e3.e" {
		t.Error("NodeRef.String wrong")
	}
	if (NodeRef{Rank: 2, Event: 3}).String() != "r2.e3.s" {
		t.Error("NodeRef.String wrong for start")
	}
}

func TestRoundBytesPerKind(t *testing.T) {
	for _, tc := range []struct {
		kind  trace.Kind
		round int
		want  int64
	}{
		{trace.KindBarrier, 0, 0},
		{trace.KindCommSplit, 1, 0},
		{trace.KindAllreduce, 2, 100},
		{trace.KindAllgather, 0, 100},
		{trace.KindAllgather, 2, 400},
		{trace.KindAlltoall, 0, 100 * 8 / 3},
		{trace.KindBcast, 1, 100},
	} {
		if got := roundBytes(tc.kind, 100, tc.round, 8); got != tc.want {
			t.Errorf("roundBytes(%s, round %d) = %d, want %d", tc.kind, tc.round, got, tc.want)
		}
	}
}

func TestNegativeMessageDeltaSpeedsReceiver(t *testing.T) {
	// §7 what-if on the interconnect: negative latency deltas model a
	// faster network; the receiver's embedded wait shrinks, order
	// preserved by clamping.
	model := &Model{MsgLatency: dist.Constant{C: -50}, AllowNegative: true}
	res, err := Analyze(blockingPairSet(t, 100), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, rr := range res.Ranks {
		if rr.FinalDelay > 0 {
			t.Fatalf("rank %d slowed down by a faster network: %g", rank, rr.FinalDelay)
		}
	}
}

// TestUnresolvedTraceErrorText pins the error for a trace that cannot
// drain. Each stalled rank's reason is built when the error is, from
// the record it stalls on; a collective reports how many participants
// had arrived by then.
func TestUnresolvedTraceErrorText(t *testing.T) {
	send := rec(trace.KindSend, 100, 200)
	send.Peer, send.Tag, send.Bytes = 1, 5, 10
	irecv := rec(trace.KindIrecv, 100, 110)
	irecv.Peer, irecv.Tag, irecv.Bytes, irecv.Req = 1, 2, 10, 1
	wait := rec(trace.KindWait, 200, 300)
	wait.Req = 1
	barrier := func(begin int64) trace.Record {
		b := rec(trace.KindBarrier, begin, 500)
		b.Seq, b.CommSize = 4, 3
		return b
	}
	idle := []trace.Record{rec(trace.KindInit, 0, 10), rec(trace.KindFinalize, 50, 50)}
	cases := []struct {
		name    string
		perRank [][]trace.Record
		want    string
	}{
		{"blocking send without receiver",
			[][]trace.Record{{rec(trace.KindInit, 0, 10), send}, idle},
			"core: trace is not self-consistent; unresolved events: [rank 0: send peer=1 tag=5]"},
		{"wait on a never-matched irecv",
			[][]trace.Record{{rec(trace.KindInit, 0, 10), irecv, wait}, idle},
			"core: trace is not self-consistent; unresolved events: [rank 0: wait req=1]"},
		{"collective missing a participant",
			[][]trace.Record{
				{rec(trace.KindInit, 0, 10), barrier(100)},
				{rec(trace.KindInit, 0, 10), barrier(120)},
				idle,
			},
			"core: trace is not self-consistent; unresolved events: [rank 0: barrier comm=0 seq=4 (2/3 arrived) rank 1: barrier comm=0 seq=4 (2/3 arrived)]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Analyze(mkset(t, tc.perRank...), &Model{}, Options{})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v\nwant    %s", err, tc.want)
			}
		})
	}
}
