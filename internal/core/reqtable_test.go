package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// memTraces drains a snapshot into owned in-memory traces that a test
// may rewrite.
func memTraces(t *testing.T, snap *trace.Snapshot) []*trace.MemTrace {
	t.Helper()
	set := snap.Set()
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

// TestDoubleWaitedRequest pins the rule that a request completes
// exactly once: a second wait on it, as on an id never posted, fails
// with a descriptive error on both sides of the request table and in
// both engines.
func TestDoubleWaitedRequest(t *testing.T) {
	set := func(req uint64) *trace.Set {
		isend := rec(trace.KindIsend, 100, 110)
		isend.Peer, isend.Tag, isend.Bytes, isend.Req = 1, 3, 100, req
		w1 := rec(trace.KindWait, 200, 300)
		w1.Req = req
		w2 := rec(trace.KindWait, 400, 450)
		w2.Req = req
		recv := rec(trace.KindRecv, 100, 350)
		recv.Peer, recv.Tag, recv.Bytes = 0, 3, 100
		return mkset(t,
			[]trace.Record{rec(trace.KindInit, 0, 10), isend, w1, w2, rec(trace.KindFinalize, 500, 500)},
			[]trace.Record{rec(trace.KindInit, 0, 10), recv, rec(trace.KindFinalize, 500, 500)})
	}
	model := &Model{MsgLatency: dist.Constant{C: 400}}
	for _, req := range []uint64{1, 77} {
		want := fmt.Sprintf("core: rank 0: wait on request %d, which is not pending (an unknown request, or one an earlier wait completed)", req)
		if _, err := Analyze(set(req), model, Options{}); err == nil || err.Error() != want {
			t.Errorf("Analyze, request %d: err = %v\nwant %s", req, err, want)
		}
		if _, err := Compile(set(req), Options{}); err == nil || err.Error() != want {
			t.Errorf("Compile, request %d: err = %v\nwant %s", req, err, want)
		}
	}
}

// reuseReqs returns a copy of the traces in which every post takes the
// lowest request id, counted from base, that is not pending on its
// rank, the way MPI libraries recycle completed handles. It also
// returns how many posts reused an id.
func reuseReqs(mems []*trace.MemTrace, base uint64) ([]*trace.MemTrace, int) {
	out := make([]*trace.MemTrace, len(mems))
	reused := 0
	for r, m := range mems {
		recs := append([]trace.Record(nil), m.Records...)
		renamed := map[uint64]uint64{}
		var used, busy []bool // per id base+i: ever posted, pending now
		for i := range recs {
			switch k := recs[i].Kind; {
			case k == trace.KindIsend || k == trace.KindIrecv:
				j := slices.Index(busy, false)
				if j < 0 {
					j = len(busy)
					used, busy = append(used, false), append(busy, false)
				}
				if used[j] {
					reused++
				}
				used[j], busy[j] = true, true
				renamed[recs[i].Req] = base + uint64(j)
				recs[i].Req = base + uint64(j)
			case k.IsCompletion():
				id := renamed[recs[i].Req]
				delete(renamed, recs[i].Req)
				busy[id-base] = false
				recs[i].Req = id
			}
		}
		out[r] = &trace.MemTrace{Hdr: m.Hdr, Records: recs}
	}
	return out, reused
}

// TestRequestIDReusedAfterWait: a wait retires its request, so a later
// post may take the same id, dense or sparse, and the result is that
// of the same trace with fresh ids. A reposted request nobody waits on
// still counts as outstanding.
func TestRequestIDReusedAfterWait(t *testing.T) {
	fresh := memTraces(t, snapWorkload(t, "stencil1d", 8, workloads.Options{Iterations: 6, CollEvery: 2}))
	for _, model := range equivalenceModels()[:3] {
		want := analyzeBoth(t, fresh, model)
		for _, base := range []uint64{1, 1 << 40} {
			mems, reused := reuseReqs(fresh, base)
			if reused == 0 {
				t.Fatalf("ids from %d: no post reuses an id", base)
			}
			if got := analyzeBoth(t, mems, model); !reflect.DeepEqual(want, got) {
				t.Fatalf("ids from %d, model %s: result differs from the fresh-id run:\n%s",
					base, modelLabel(model), diffResults(want, got))
			}
		}
	}

	for _, req := range []uint64{1, 77} {
		isend := rec(trace.KindIsend, 100, 110)
		isend.Peer, isend.Tag, isend.Bytes, isend.Req = 1, 3, 100, req
		wait := rec(trace.KindWait, 200, 300)
		wait.Req = req
		repost := isend
		repost.Begin, repost.End = 400, 410
		recv := rec(trace.KindRecv, 100, 350)
		recv.Peer, recv.Tag, recv.Bytes = 0, 3, 100
		recv2 := recv
		recv2.Begin, recv2.End = 400, 450
		res := analyzeBoth(t, []*trace.MemTrace{
			{Hdr: trace.Header{Rank: 0, NRanks: 2}, Records: []trace.Record{
				rec(trace.KindInit, 0, 10), isend, wait, repost, rec(trace.KindFinalize, 500, 500)}},
			{Hdr: trace.Header{Rank: 1, NRanks: 2}, Records: []trace.Record{
				rec(trace.KindInit, 0, 10), recv, recv2, rec(trace.KindFinalize, 500, 500)}},
		}, &Model{MsgLatency: dist.Constant{C: 400}})
		want := []string{"rank 0 finalized with 1 outstanding nonblocking requests"}
		if !reflect.DeepEqual(res.Warnings, want) {
			t.Errorf("request %d reposted and never waited: warnings = %q, want %q", req, res.Warnings, want)
		}
	}
}

// TestRequestTableMatchesMap drives one rank's request table through
// random posts, waits and reposts, checking every lookup against a
// plain map. Ids are mostly consecutive, as the mpi runtime issues
// them, with retired ids reposted and sparse ids mixed in, so the
// window reuses slots, slides its live part down and empties. Its
// capacity must follow the span of pending ids, not the ids issued.
func TestRequestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	msgs := make([]msgState, 64)
	rs := &rankState{reqBase: 1}
	want := map[uint64]reqRef{}
	var pending, retired []uint64
	next := uint64(1)
	maxSpan := 0
	check := func(step int, id uint64) {
		ref, ok := want[id]
		got := rs.req(id)
		if ok != (got != nil) || ok && *got != ref {
			t.Fatalf("step %d: req(%d) = %+v, want %+v (pending %t)", step, id, got, ref, ok)
		}
	}
	for step := 0; step < 20000; step++ {
		var id uint64
		switch op := rng.Intn(8); {
		case len(pending) == 16 || len(pending) > 0 && op < 3: // wait
			k := rng.Intn(len(pending))
			id = pending[k]
			pending = slices.Delete(pending, k, k+1)
			delete(want, id)
			rs.retireReq(id)
			retired = append(retired, id)
			if len(retired) > 32 {
				retired = retired[1:]
			}
		default: // post
			switch {
			case op == 3 && len(retired) > 0:
				id = retired[rng.Intn(len(retired))]
			case op == 4:
				id = 1<<40 + uint64(rng.Intn(64))
			default:
				id = next
				next++
			}
			if _, ok := want[id]; ok {
				continue // only ids that are not pending get posted
			}
			ref := reqRef{msg: &msgs[rng.Intn(len(msgs))], isSend: rng.Intn(2) == 0}
			rs.addReq(id, ref)
			want[id] = ref
			pending = append(pending, id)
			retired = slices.DeleteFunc(retired, func(r uint64) bool { return r == id })
		}
		// The live span runs from the oldest pending request in the
		// window to the window's end.
		end := rs.reqBase + uint64(len(rs.reqTab))
		oldest := end
		for _, p := range pending {
			if p >= rs.reqBase && p < oldest {
				oldest = p
			}
		}
		maxSpan = max(maxSpan, int(end-oldest))
		check(step, id)
		for _, p := range pending {
			check(step, p)
		}
		for _, r := range retired {
			check(step, r)
		}
	}
	// A window grows only while less than half of it is retired, so
	// its capacity stays below four times the longest live span.
	t.Logf("window capacity %d, longest live span %d, after %d consecutive ids", cap(rs.reqTab), maxSpan, next-1)
	if c := cap(rs.reqTab); c > 4*maxSpan {
		t.Fatalf("request window capacity %d; the longest live span was %d", c, maxSpan)
	}
}
