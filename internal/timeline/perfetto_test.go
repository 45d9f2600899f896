package timeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/obsv"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// cgTimeline analyzes an in-memory cg trace the way the timeline
// benchmark workload does: the what-if model with one term of each
// sampled class, explicit collectives, the critical path and the
// interval hook.
func cgTimeline(tb testing.TB, ranks, iters int) (*Timeline, *core.Result) {
	tb.Helper()
	prog, err := workloads.BuildByName("cg", workloads.Options{Iterations: iters})
	if err != nil {
		tb.Fatal(err)
	}
	run, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: ranks, Seed: 3, Noise: dist.Exponential{MeanValue: 100}}}, prog)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		tb.Fatal(err)
	}
	tl := New(ranks)
	res, err := core.Analyze(set, &core.Model{
		Seed:        11,
		OSNoise:     dist.Exponential{MeanValue: 300},
		MsgLatency:  dist.Exponential{MeanValue: 500},
		PerByte:     dist.Constant{C: 0.5},
		Collectives: core.CollectiveExplicit,
	}, core.Options{RecordCritPath: true, Interval: tl.Record})
	if err != nil {
		tb.Fatal(err)
	}
	return tl, res
}

// checkEncoding asserts that the encoder writes e exactly as
// json.Marshal writes the reference layout, and that both refuse the
// same non-finite numbers.
func checkEncoding(t *testing.T, e traceEvent) {
	t.Helper()
	want, err := json.Marshal(refEvent(&e))
	field, _ := e.nonFinite()
	if (err != nil) != (field != "") {
		t.Fatalf("%+v: encoding/json error %v, non-finite field %q", e, err, field)
	}
	if err != nil {
		return
	}
	if got := appendEvent(nil, &e); !bytes.Equal(got, want) {
		t.Fatalf("%+v:\n got %s\nwant %s", e, got, want)
	}
}

var (
	lineSep = string(rune(0x2028))
	paraSep = string(rune(0x2029))

	encodingFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 12345.678, 1.5e-7, 1.234e-10, 1e-100,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, -math.Nextafter(1e-6, 0),
		1e21, math.Nextafter(1e21, 0), -1e21, -math.Nextafter(1e21, 0), 1e22, 1e300,
		5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64,
		1 << 53, 1<<53 + 2, 123456789012345678, 1e20, 99999999999999999999,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	encodingStrings = []string{
		"", "compute", "wait:late-sender", "rank ", `<>&"\`, "a<b>c&d",
		"tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
		"line" + lineSep + "sep" + paraSep + "para",
		"bad\xffutf8\xc3", "trunc\xe2\x80", "surrogate\xed\xa0\x80", "héllo ✓ 日本",
	}
	encodingInts = []int{0, 1, -1, 12, math.MaxInt, math.MinInt}
)

func TestTraceEventEncodingMatchesJSON(t *testing.T) {
	for _, f := range encodingFloats {
		checkEncoding(t, traceEvent{Ph: "C", Ts: f, Pid: pidRanks, Args: valueArgs(1)})
		checkEncoding(t, traceEvent{Name: "load_balance", Ph: "C", Ts: 1, Pid: pidRanks, Args: valueArgs(f)})
	}
	for _, s := range encodingStrings {
		checkEncoding(t, traceEvent{Name: s, Cat: s, Ph: "B", Ts: 2, Pid: pidRanks, Tid: 3})
		checkEncoding(t, traceEvent{Ph: s, Ts: 2, BP: s})
		checkEncoding(t, traceEvent{Name: "process_name", Ph: "M", Pid: pidEngine, Args: nameArgs(s)})
		checkEncoding(t, traceEvent{Name: "thread_name", Ph: "M", Pid: pidEngine, Args: numberedArgs(s, 7)})
	}
	for _, n := range encodingInts {
		checkEncoding(t, traceEvent{Name: "msg", Cat: catDataflow, Ph: "s", Ts: 4, Pid: n, Tid: n, ID: int64(n)})
		checkEncoding(t, traceEvent{Name: "msg", Cat: catDataflow, Ph: "f", Ts: 4, Pid: pidRanks, Tid: 1, ID: int64(n), BP: "e"})
		checkEncoding(t, traceEvent{Name: "thread_sort_index", Ph: "M", Pid: pidRanks, Tid: n, Args: sortIndexArgs(n)})
		checkEncoding(t, traceEvent{Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: n, Args: numberedArgs("rank ", n)})
	}
}

func FuzzTraceEventEncoding(f *testing.F) {
	f.Add("compute", "compute", "B", 12.5, 1, 3, int64(0), "", uint8(argsNone), "", 0, 0.0)
	f.Add("msg", "dataflow", "f", 1e21, 1, 0, int64(7), "e", uint8(argsValue), "", 0, 1.5e-7)
	f.Add(`<>&"\`, "\x00\xff", "M", math.Copysign(0, -1), 2, -1, int64(-9), lineSep, uint8(argsNumbered), "lane ", 12, 0.0)
	f.Add("", "", "C", 5e-324, 0, 0, int64(0), "", uint8(argsSortIndex), "", math.MinInt, math.MaxFloat64)
	f.Add("", "", "E", math.NaN(), 0, 0, int64(0), "", uint8(argsName), "engine", 0, math.Inf(1))
	f.Fuzz(func(t *testing.T, name, cat, ph string, ts float64, pid, tid int, id int64, bp string, kind uint8, argName string, argN int, argValue float64) {
		checkEncoding(t, traceEvent{
			Name: name, Cat: cat, Ph: ph, Ts: ts, Pid: pid, Tid: tid, ID: id, BP: bp,
			Args: eventArgs{kind: argsKind(kind % (uint8(argsValue) + 1)), name: argName, n: argN, value: argValue},
		})
	})
}

// waitTimeline is two ranks: rank 0 sends on [0, 10], rank 1 computes
// on [0, 5] and then waits on [5, 10] for rank 0's message.
func waitTimeline() *Timeline {
	tl := New(2)
	tl.Record(core.IntervalPoint{Rank: 0, Kind: uint8(trace.KindSend), OrigEnd: 10, PeerRank: -1})
	tl.Record(core.IntervalPoint{Rank: 1, Kind: uint8(trace.KindInit), OrigEnd: 5, PeerRank: -1})
	tl.Record(core.IntervalPoint{
		Rank: 1, Event: 1, Kind: uint8(trace.KindRecv), OrigBegin: 5, OrigEnd: 5,
		EndDelay: 5, Wait: 5, State: core.WaitLateSender, PeerRank: 0, PeerEvent: 0,
	})
	return tl
}

func TestWriteJSONRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		mut  func(tl *Timeline, opts *ExportOptions)
		want string
	}{
		{"rank slice", func(tl *Timeline, _ *ExportOptions) {
			tl.Ranks[1][1].End = math.Inf(1)
		}, `ts=+Inf of "E" event "wait:late-sender" on track pid 1 tid 1`},
		{"flow", func(tl *Timeline, _ *ExportOptions) {
			tl.Ranks[0][0].Start = math.NaN()
		}, `ts=NaN of "s" event "msg" on track pid 1 tid 0`},
		{"counter", func(_ *Timeline, opts *ExportOptions) {
			opts.Window = math.Inf(1)
		}, `ts=NaN of "C" event "parallel_efficiency" on track pid 1 tid 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl := waitTimeline()
			var opts ExportOptions
			if err := tl.WriteJSON(io.Discard, opts); err != nil {
				t.Fatalf("unmodified timeline: %v", err)
			}
			tc.mut(tl, &opts)
			err := tl.WriteJSON(io.Discard, opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			// encoding/json refused the same export, without saying where.
			if err := refWriteJSON(tl, io.Discard, opts); err == nil || !strings.Contains(err.Error(), "unsupported value") {
				t.Fatalf("reference exporter: %v", err)
			}
		})
	}

	ew := newEventWriter(io.Discard)
	ew.emit(&traceEvent{Name: "load_balance", Ph: "C", Ts: 1, Pid: pidRanks, Args: valueArgs(math.NaN())})
	if err := ew.close(); err == nil || !strings.Contains(err.Error(), `args.value=NaN of "C" event "load_balance"`) {
		t.Fatalf("counter sample NaN: %v", err)
	}
}

// refDocument is the document the reference emitter writes for events.
func refDocument(t *testing.T, events []traceEvent) []byte {
	t.Helper()
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	bw.WriteString("{\"traceEvents\":[\n") //nolint:errcheck
	ew := &refEventWriter{w: bw, first: true}
	for i := range events {
		ew.emit(refEvent(&events[i]))
	}
	if ew.err != nil {
		t.Fatal(ew.err)
	}
	bw.WriteString("\n]}\n") //nolint:errcheck
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPreRenderedHeadsMatchOracle exports a slice of every trace.Kind
// and every wait state, one out of range of each included, and checks
// the document against the reference exporter. The out-of-range ones
// take the generic path; the rest copy a pre-rendered head.
func TestPreRenderedHeadsMatchOracle(t *testing.T) {
	kinds := len(kindHeads) + 1
	states := len(waitHeads) + 1
	if got := kindHead(trace.Kind(kinds - 1)); got != "" {
		t.Fatalf("kind %d has head %q, want none", kinds-1, got)
	}
	if got := waitHead(core.WaitState(states - 1)); got != "" {
		t.Fatalf("wait state %d has head %q, want none", states-1, got)
	}
	tl := &Timeline{Ranks: make([][]Event, kinds*states)}
	for k := 0; k < kinds; k++ {
		for s := 0; s < states; s++ {
			// A compute gap, an op slice and a wait slice, then a flow
			// from the first track.
			r := k*states + s
			tl.Ranks[r] = []Event{
				{Kind: trace.KindInit, End: 1},
				{Index: 1, Kind: trace.Kind(k), Start: 2, WaitStart: 3.5, End: 4, State: core.WaitState(s)},
			}
			if r > 0 {
				tl.Flows = append(tl.Flows, Flow{SrcRank: 0, SrcEvent: 1, DstRank: r, DstEvent: 1})
			}
		}
	}
	cp := &core.CriticalPath{Steps: []core.PathStep{
		{Node: core.NodeRef{Rank: 0, Event: 1}},
		{Node: core.NodeRef{Rank: 1, Event: 1, End: true}},
	}}
	opts := ExportOptions{CritPath: cp}
	var got, want bytes.Buffer
	if err := tl.WriteJSON(&got, opts); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(tl, &want, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("export differs from the reference:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	for k := 0; k < kinds; k++ {
		if name := `"name":"` + trace.Kind(k).String() + `","cat":"op"`; !strings.Contains(got.String(), name) {
			t.Errorf("export has no %s", name)
		}
	}
	for s := 0; s < states; s++ {
		if name := `"name":"wait:` + core.WaitState(s).String() + `"`; !strings.Contains(got.String(), name) {
			t.Errorf("export has no %s", name)
		}
	}
	for _, s := range []string{`"name":"compute"`, `"name":"msg"`, `"name":"critpath"`} {
		if !strings.Contains(got.String(), s) {
			t.Errorf("export has no %s", s)
		}
	}
}

// TestTimestampMemoMatchesOracle writes timestamps that differ from the
// one before them only in the sign of zero or by one ulp, where a memo
// keyed on the value rather than its bits, or on too few of them,
// would copy the wrong text.
func TestTimestampMemoMatchesOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ulp := math.Nextafter(1, 2)
	tiny := math.SmallestNonzeroFloat64

	// Through the exporter: slice boundaries -1, -0 | +0, tiny, 2·tiny
	// | 1, 1+ulp, 1+2ulp on one track, and +0 | -0 across two tracks.
	tl := &Timeline{Ranks: make([][]Event, 3)}
	tl.Ranks[0] = []Event{
		{Kind: trace.KindSend, Start: -1, WaitStart: negZero, End: negZero},
		{Index: 1, Kind: trace.KindRecv, Start: 0, WaitStart: tiny, End: 2 * tiny, State: core.WaitLateSender},
		{Index: 2, Kind: trace.KindBarrier, Start: 1, WaitStart: ulp, End: math.Nextafter(ulp, 2), State: core.WaitCollective},
	}
	tl.Ranks[1] = []Event{{Kind: trace.KindInit, Start: 0, WaitStart: 1, End: 2}}
	tl.Ranks[2] = []Event{{Kind: trace.KindInit, Start: negZero, WaitStart: 1, End: 2}}
	tl.Flows = []Flow{{SrcRank: 1, SrcEvent: 0, DstRank: 0, DstEvent: 1}}
	opts := ExportOptions{Window: 0.5}
	var got, want bytes.Buffer
	if err := tl.WriteJSON(&got, opts); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(tl, &want, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("export differs from the reference:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}

	// Through the writer alone, on every kind of event.
	var events []traceEvent
	for _, ts := range []float64{0, negZero, negZero, 0, 1, ulp, ulp, 1, tiny, -tiny, 1e21, math.Nextafter(1e21, 0), 1e-6, math.Nextafter(1e-6, 0)} {
		events = append(events,
			traceEvent{Name: "compute", Cat: catCompute, Ph: "B", Ts: ts, Pid: pidRanks, head: computeHead},
			traceEvent{Ph: "E", Ts: ts, Pid: pidRanks, Tid: 1, head: endHead},
			traceEvent{Name: "load_balance", Ph: "C", Ts: ts, Pid: pidRanks, Args: valueArgs(ts)},
		)
	}
	var doc bytes.Buffer
	ew := newEventWriter(&doc)
	for i := range events {
		ew.emit(&events[i])
	}
	if err := ew.close(); err != nil {
		t.Fatal(err)
	}
	if want := refDocument(t, events); !bytes.Equal(doc.Bytes(), want) {
		t.Fatalf("document differs from the reference:\n got %s\nwant %s", doc.Bytes(), want)
	}
}

// chunkWriter records the size of every write it receives.
type chunkWriter struct {
	bytes.Buffer
	writes []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestLargeExportMatchesOracle pins the whole document, not just single
// events: a filtered, windowed cg export with critical-path arrows and
// engine spans must equal the reference exporter's byte for byte.
func TestLargeExportMatchesOracle(t *testing.T) {
	tl, res := cgTimeline(t, 32, 10)
	spans := []obsv.Span{
		{Name: "compile", Start: 0, End: 1500},
		{Name: "replay", Start: 1000, End: 9000},
		{Name: "replay", Start: 1000, End: 9000},
		{Name: "analyze", Start: 2000, End: 1999},
		{Name: "sweep_point <a&b>", Start: 9000, End: 12345},
		{Name: "verify_scenario", Start: 1_700_000_000_123_456_789, End: 1_700_000_000_987_654_321},
	}
	opts := ExportOptions{
		Window:   700,
		Ranks:    []int{0, 1, 2, 3, 5, 8, 13, 21, 31},
		CritPath: res.CritPath,
		Spans:    spans,
	}
	var got chunkWriter
	var want bytes.Buffer
	if err := tl.WriteJSON(&got, opts); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(tl, &want, opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("export differs from the reference (%d vs %d bytes)", got.Len(), want.Len())
	}
	for _, s := range []string{`"cat":"critpath"`, `"cat":"dataflow"`, `"load_balance"`, `"lane 1"`, `"rank 31"`} {
		if !strings.Contains(got.String(), s) {
			t.Errorf("export has no %s", s)
		}
	}
	if len(got.writes) < 4 {
		t.Fatalf("a %d-byte export took %d writes; want several chunks", got.Len(), len(got.writes))
	}
	for i, n := range got.writes[:len(got.writes)-1] {
		if n < flushSize {
			t.Errorf("write %d of %d carried %d bytes, below the %d-byte chunk", i, len(got.writes), n, flushSize)
		}
	}

	got.Reset()
	want.Reset()
	if err := WriteSpansJSON(&got, spans); err != nil {
		t.Fatal(err)
	}
	if err := refWriteSpansJSON(&want, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("span export differs from the reference:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// TestWriteJSONAllocs guards the encoder's reason to exist: into a
// buffer that already has room, an export allocates a fixed number of
// times (its chunk buffer, the rank set, the sorted flows and the
// window metrics), however many events it writes.
func TestWriteJSONAllocs(t *testing.T) {
	const maxAllocs = 6
	allocs := func(ranks int) float64 {
		tl, res := cgTimeline(t, ranks, 4)
		opts := ExportOptions{CritPath: res.CritPath}
		var buf bytes.Buffer
		if err := tl.WriteJSON(&buf, opts); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			buf.Reset()
			if err := tl.WriteJSON(&buf, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(128)
	t.Logf("allocations per export: %v at 8 ranks, %v at 128", small, large)
	if small != large {
		t.Errorf("allocations grow with the export: %v at 8 ranks, %v at 128", small, large)
	}
	if large > maxAllocs {
		t.Errorf("WriteJSON allocates %v times per export, want at most %d", large, maxAllocs)
	}
}

// BenchmarkWriteJSON exports the timeline-cg benchmark workload's
// timeline shape: cg at 128 ranks and 20 iterations with the critical
// path, about 6.5 MB of JSON.
func BenchmarkWriteJSON(b *testing.B) {
	tl, res := cgTimeline(b, 128, 20)
	opts := ExportOptions{CritPath: res.CritPath}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf, opts); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tl.WriteJSON(&buf, opts); err != nil {
			b.Fatal(err)
		}
	}
}
