package core

import (
	"math/rand"
	"reflect"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// memTraces drains a snapshot into owned in-memory traces that a test
// may rewrite.
func memTraces(t *testing.T, snap *trace.Snapshot) []*trace.MemTrace {
	t.Helper()
	set, release := snap.Acquire()
	defer release()
	mems := make([]*trace.MemTrace, set.NRanks())
	for r := range mems {
		m, err := trace.ReadAll(set.Rank(r))
		if err != nil {
			t.Fatal(err)
		}
		m.Hdr = set.Rank(r).Header()
		mems[r] = m
	}
	return mems
}

// rewriteReqs returns a copy of the traces with every request id
// replaced by newID(i), where i numbers the rank's distinct ids in
// first-use order.
func rewriteReqs(mems []*trace.MemTrace, newID func(i int) uint64) []*trace.MemTrace {
	out := make([]*trace.MemTrace, len(mems))
	for r, m := range mems {
		ids := map[uint64]uint64{}
		recs := append([]trace.Record(nil), m.Records...)
		for i := range recs {
			k := recs[i].Kind
			if k != trace.KindIsend && k != trace.KindIrecv && !k.IsCompletion() {
				continue
			}
			id, ok := ids[recs[i].Req]
			if !ok {
				id = newID(len(ids))
				ids[recs[i].Req] = id
			}
			recs[i].Req = id
		}
		out[r] = &trace.MemTrace{Hdr: m.Hdr, Records: recs}
	}
	return out
}

// analyzeBoth runs the traces through Analyze and through Compile +
// ReplayCompiled, failing unless the two results agree.
func analyzeBoth(t *testing.T, mems []*trace.MemTrace, model *Model) *Result {
	t.Helper()
	run := func() *trace.Set {
		for _, m := range mems {
			m.Reset()
		}
		set, err := trace.SetFromMem(mems)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	want, err := Analyze(run(), model, Options{RecordCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(run(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReplayCompiled(c, model, Options{RecordCritPath: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("compiled replay diverged from Analyze:\n%s", diffResults(want, got))
	}
	return want
}

// TestSparseRequestIDsMatchDense: request ids the mpi runtime did not
// issue (sparse, shuffled, or dense ones interleaved with sparse ones)
// take the map side of the request table and must give exactly the
// result of the runtime's consecutive ids.
func TestSparseRequestIDsMatchDense(t *testing.T) {
	dense := memTraces(t, snapWorkload(t, "stencil1d", 8, workloads.Options{Iterations: 6, CollEvery: 2}))
	posts := 0
	for _, m := range dense {
		n := uint64(0)
		for _, r := range m.Records {
			if r.Kind == trace.KindIsend || r.Kind == trace.KindIrecv {
				n++
				posts++
				if r.Req != n {
					t.Fatalf("rank %d: post %d has request id %d; the runtime issues consecutive ids", m.Hdr.Rank, n, r.Req)
				}
			}
		}
	}
	if posts == 0 {
		t.Fatal("workload posts no nonblocking requests")
	}
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(posts)
	variants := map[string]func(i int) uint64{
		// Shuffled ids far from 1: every request lives in the map.
		"sparse": func(i int) uint64 { return 1<<40 + uint64(perm[i])*7919 },
		// Every third request keeps a consecutive id of its own: both
		// sides of the table are live on every rank.
		"mixed": func(i int) uint64 {
			if i%3 == 0 {
				return uint64(i/3 + 1)
			}
			return 1<<40 + uint64(perm[i])
		},
	}
	for _, model := range equivalenceModels()[:3] {
		want := analyzeBoth(t, dense, model)
		for name, newID := range variants {
			got := analyzeBoth(t, rewriteReqs(dense, newID), model)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s ids, model %s: result differs from the dense-id run:\n%s",
					name, modelLabel(model), diffResults(want, got))
			}
		}
	}
}

// TestDoubleWaitedRequest pins the behaviour of waiting twice on one
// request, on both sides of the request table: the second wait sees
// the transfer again and applies the sender's completion rule once
// more, and the request counts as waited once.
func TestDoubleWaitedRequest(t *testing.T) {
	set := func(req uint64) []*trace.MemTrace {
		isend := rec(trace.KindIsend, 100, 110)
		isend.Peer, isend.Tag, isend.Bytes, isend.Req = 1, 3, 100, req
		w1 := rec(trace.KindWait, 200, 300)
		w1.Req = req
		w2 := rec(trace.KindWait, 400, 450)
		w2.Req = req
		recv := rec(trace.KindRecv, 100, 350)
		recv.Peer, recv.Tag, recv.Bytes = 0, 3, 100
		return []*trace.MemTrace{
			{Hdr: trace.Header{Rank: 0, NRanks: 2}, Records: []trace.Record{
				rec(trace.KindInit, 0, 10), isend, w1, w2, rec(trace.KindFinalize, 500, 500)}},
			{Hdr: trace.Header{Rank: 1, NRanks: 2}, Records: []trace.Record{
				rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 500, 500)}},
		}
	}
	model := &Model{
		OSNoise:    dist.Constant{C: 7},
		MsgLatency: dist.Constant{C: 400},
		PerByte:    dist.Constant{C: 0.25},
	}
	dense := analyzeBoth(t, set(1), model)
	if sparse := analyzeBoth(t, set(77), model); !reflect.DeepEqual(dense, sparse) {
		t.Fatalf("sparse request id differs from the dense one:\n%s", diffResults(dense, sparse))
	}
	// The values the map-only request lookup produced: the first wait
	// adopts the acknowledged transfer (811 cycles induced); the second
	// merges the same remote path again, which the rank's own noise has
	// since outrun by 14 cycles.
	want := RankResult{
		Events: 5, OrigEnd: 500, FinalDelay: 867, InjectedLocal: 56,
		Absorbed: 1, Propagated: 1, SlackAbsorbed: 14, DelayInduced: 811,
		Attr: Attribution{OwnNoise: 42, MsgDelta: 825},
	}
	if got := dense.Ranks[0]; got != want {
		t.Fatalf("double-waiting rank:\n got %+v\nwant %+v", got, want)
	}
	if len(dense.Warnings) != 0 {
		t.Fatalf("warnings = %q; the request was waited", dense.Warnings)
	}
}
