package timeline

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"mpgraph/internal/core"
	"mpgraph/internal/obsv"
)

// Chrome trace-event / Perfetto export. The output is the JSON object
// format ({"traceEvents": [...]}) with duration slices as balanced B/E
// pairs, message and critical-path edges as s/f flow events, windowed
// metrics as C counter tracks, and (optionally) engine self-spans as a
// second process group. Events are emitted one per line in a fixed
// order derived only from the timeline's content, so the same replay
// always produces byte-identical output — the golden test pins this
// across the streaming and compiled engines.
//
// Events are encoded without reflection: eventWriter appends each one,
// field by field, to a reused buffer that it hands to the destination
// in chunks of about 64 KiB. The bytes are exactly what encoding/json
// would write for the same event — its float format, its HTML-safe
// string escaping, its omitempty rules — and the differential tests
// compare the two on single events, on fuzzed events and on a large
// export. Unlike encoding/json, a NaN or infinite number fails with an
// error that names the event and its track; JSON cannot carry it.
//
// Timestamps on the simulated-rank process (pid 1) are in simulated
// cycles, not microseconds; viewers render them fine, the unit label is
// just nominal. Engine self-spans (pid 2) are wall-clock microseconds.

// Process/track layout of the exported trace.
const (
	pidRanks  = 1 // simulated ranks: tid = rank
	pidEngine = 2 // engine self-spans: tid = concurrency lane

	catCompute  = "compute"
	catOp       = "op"
	catWait     = "wait"
	catDataflow = "dataflow"
	catCritpath = "critpath"
)

// maxWindows bounds the counter sampling so a tiny -timeline-window on
// a long trace cannot explode the export.
const maxWindows = 1_000_000

// ExportOptions tunes WriteJSON.
type ExportOptions struct {
	// Window is the counter-sampling window in cycles; when not
	// positive the span is split into about 60 windows.
	Window float64
	// Ranks restricts which tracks are exported (nil = all). Counter
	// tracks always aggregate over every rank regardless.
	Ranks []int
	// CritPath, when non-nil, adds flow arrows along the recorded
	// critical path (cross-rank steps only; same-rank steps are
	// contiguous on the track already).
	CritPath *core.CriticalPath
	// Spans, when non-nil, adds the engine self-span process. Span
	// times are wall-clock, so deterministic output requires leaving
	// this nil.
	Spans []obsv.Span
}

// traceEvent is one trace-event JSON object. appendEvent writes its
// fields in declaration order and omits Name, Cat, ID, BP and Args
// when they are zero.
type traceEvent struct {
	Name string
	Cat  string
	Ph   string
	Ts   float64
	Pid  int
	Tid  int
	ID   int64
	BP   string
	Args eventArgs
}

// eventArgs is an event's "args" object, in the shapes the export
// writes: a metadata name, a sort index, or a counter sample.
type eventArgs struct {
	kind  argsKind
	name  string  // argsName: the name; argsNumbered: the text before n
	n     int     // argsNumbered: the number ending the name; argsSortIndex: the index
	value float64 // argsValue
}

type argsKind uint8

const (
	argsNone      argsKind = iota
	argsName               // {"name":name}
	argsNumbered           // {"name":name+decimal n}, e.g. "rank 3"
	argsSortIndex          // {"sort_index":n}
	argsValue              // {"value":value}
)

func nameArgs(name string) eventArgs { return eventArgs{kind: argsName, name: name} }

func numberedArgs(prefix string, n int) eventArgs {
	return eventArgs{kind: argsNumbered, name: prefix, n: n}
}

func sortIndexArgs(n int) eventArgs { return eventArgs{kind: argsSortIndex, n: n} }

func valueArgs(v float64) eventArgs { return eventArgs{kind: argsValue, value: v} }

// nonFinite returns the name and value of e's first number that JSON
// cannot carry, or "" when every number is finite.
func (e *traceEvent) nonFinite() (string, float64) {
	if math.IsNaN(e.Ts) || math.IsInf(e.Ts, 0) {
		return "ts", e.Ts
	}
	if v := e.Args.value; e.Args.kind == argsValue && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return "args.value", v
	}
	return "", 0
}

// appendEvent appends e as one JSON object. Every number in e must be
// finite (see nonFinite).
func appendEvent(b []byte, e *traceEvent) []byte {
	b = append(b, '{')
	if e.Name != "" {
		b = append(b, `"name":`...)
		b = appendString(b, e.Name)
		b = append(b, ',')
	}
	if e.Cat != "" {
		b = append(b, `"cat":`...)
		b = appendString(b, e.Cat)
		b = append(b, ',')
	}
	b = append(b, `"ph":`...)
	b = appendString(b, e.Ph)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, e.Ts)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(e.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(e.Tid), 10)
	if e.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, e.ID, 10)
	}
	if e.BP != "" {
		b = append(b, `,"bp":`...)
		b = appendString(b, e.BP)
	}
	switch a := &e.Args; a.kind {
	case argsName:
		b = append(b, `,"args":{"name":`...)
		b = appendString(b, a.name)
		b = append(b, '}')
	case argsNumbered:
		b = append(b, `,"args":{"name":"`...)
		b = appendEscaped(b, a.name)
		b = strconv.AppendInt(b, int64(a.n), 10)
		b = append(b, `"}`...)
	case argsSortIndex:
		b = append(b, `,"args":{"sort_index":`...)
		b = strconv.AppendInt(b, int64(a.n), 10)
		b = append(b, '}')
	case argsValue:
		b = append(b, `,"args":{"value":`...)
		b = appendFloat(b, a.value)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest 'f' form, the 'e' form below 1e-6 and from 1e21 on, and
// a negative exponent without its leading zero (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a quoted JSON string (see appendEscaped).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped when
// it escapes HTML, as json.Marshal does: everything but control
// characters, '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

// appendEscaped appends s's JSON string body with encoding/json's
// escaping: short escapes for '"', '\\', \b, \f, \n, \r and \t; a
// six-byte hex escape for the other control characters, for <, > and
// &, and for U+2028 and U+2029 (line terminators to JavaScript); and
// the escaped U+FFFD for each byte of invalid UTF-8.
func appendEscaped(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}

// flushSize is the chunk size in which eventWriter hands the document
// to its destination.
const flushSize = 64 << 10

// eventWriter encodes a trace-event document into one reused buffer,
// passing it to w whenever it holds flushSize bytes. The first error —
// a failed write or a number JSON cannot carry — stops the document.
type eventWriter struct {
	w     io.Writer
	buf   []byte
	first bool
	open  string // name of the latest "B" event, which the next "E" closes
	err   error
}

func newEventWriter(w io.Writer) *eventWriter {
	ew := &eventWriter{w: w, first: true, buf: make([]byte, 0, flushSize+flushSize/4)}
	ew.buf = append(ew.buf, "{\"traceEvents\":[\n"...)
	return ew
}

// emit appends e to the document, or records why it cannot be written.
func (ew *eventWriter) emit(e traceEvent) {
	if ew.err != nil {
		return
	}
	if e.Ph == "B" {
		ew.open = e.Name
	}
	if field, v := e.nonFinite(); field != "" {
		name := e.Name
		if e.Ph == "E" {
			name = ew.open
		}
		ew.err = fmt.Errorf("timeline: cannot export %s=%v of %q event %q on track pid %d tid %d: JSON has no non-finite numbers",
			field, v, e.Ph, name, e.Pid, e.Tid)
		return
	}
	if ew.first {
		ew.first = false
	} else {
		ew.buf = append(ew.buf, ",\n"...)
	}
	ew.buf = appendEvent(ew.buf, &e)
	if len(ew.buf) >= flushSize {
		ew.flush()
	}
}

func (ew *eventWriter) flush() {
	if ew.err == nil {
		_, ew.err = ew.w.Write(ew.buf)
	}
	ew.buf = ew.buf[:0]
}

// close ends the document and writes what is left of it.
func (ew *eventWriter) close() error {
	if ew.err != nil {
		return ew.err
	}
	ew.buf = append(ew.buf, "\n]}\n"...)
	ew.flush()
	return ew.err
}

// waitNames are the wait-slice names of the defined wait states.
var waitNames = func() (names [core.WaitCollective + 1]string) {
	for s := range names {
		names[s] = "wait:" + core.WaitState(s).String()
	}
	return names
}()

func waitName(s core.WaitState) string {
	if int(s) < len(waitNames) {
		return waitNames[s]
	}
	return "wait:" + s.String()
}

// WriteJSON exports the timeline as Chrome trace-event JSON. See the
// package comment for layout and doc/TIMELINE.md for how to open it.
func (t *Timeline) WriteJSON(w io.Writer, opts ExportOptions) error {
	ew := newEventWriter(w)

	sel := opts.Ranks
	exported := make([]bool, len(t.Ranks))
	isExported := func(r int) bool { return r >= 0 && r < len(exported) && exported[r] }
	ew.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidRanks, Args: nameArgs("simulated ranks")})
	for r, evs := range t.Ranks {
		if sel != nil && !slices.Contains(sel, r) {
			continue
		}
		if len(evs) == 0 {
			continue
		}
		exported[r] = true
		ew.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: r, Args: numberedArgs("rank ", r)})
		ew.emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: pidRanks, Tid: r, Args: sortIndexArgs(r)})
	}

	// Per-rank slices: compute gap, execution, wait — balanced B/E
	// pairs in track order (segments tile, so pairs are ts-ordered).
	for r, evs := range t.Ranks {
		if !exported[r] {
			continue
		}
		prevEnd := math.Inf(-1)
		started := false
		for i := range evs {
			e := &evs[i]
			if started && e.Start > prevEnd {
				ew.emit(traceEvent{Name: "compute", Cat: catCompute, Ph: "B", Ts: prevEnd, Pid: pidRanks, Tid: r})
				ew.emit(traceEvent{Ph: "E", Ts: e.Start, Pid: pidRanks, Tid: r})
			}
			if e.WaitStart > e.Start {
				ew.emit(traceEvent{Name: e.Kind.String(), Cat: catOp, Ph: "B", Ts: e.Start, Pid: pidRanks, Tid: r})
				ew.emit(traceEvent{Ph: "E", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
			}
			if e.End > e.WaitStart {
				ew.emit(traceEvent{Name: waitName(e.State), Cat: catWait, Ph: "B", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
				ew.emit(traceEvent{Ph: "E", Ts: e.End, Pid: pidRanks, Tid: r})
			}
			prevEnd = e.End
			started = true
		}
	}

	// Message flows, sorted by destination (unique per completion) so
	// the order does not depend on cross-rank arrival interleaving.
	flows := slices.Clone(t.Flows)
	slices.SortFunc(flows, func(a, b Flow) int {
		if c := cmp.Compare(a.DstRank, b.DstRank); c != 0 {
			return c
		}
		return cmp.Compare(a.DstEvent, b.DstEvent)
	})
	var id int64
	for _, f := range flows {
		if !isExported(f.SrcRank) || !isExported(f.DstRank) {
			continue
		}
		src := &t.Ranks[f.SrcRank][f.SrcEvent]
		dst := &t.Ranks[f.DstRank][f.DstEvent]
		id++
		ew.emit(traceEvent{Name: "msg", Cat: catDataflow, Ph: "s", Ts: src.Start, Pid: pidRanks, Tid: f.SrcRank, ID: id})
		ew.emit(traceEvent{Name: "msg", Cat: catDataflow, Ph: "f", Ts: dst.End, Pid: pidRanks, Tid: f.DstRank, ID: id, BP: "e"})
	}

	// Critical-path flows: one arrow per cross-rank step pair.
	if cp := opts.CritPath; cp != nil {
		var cid int64
		for i := 1; i < len(cp.Steps); i++ {
			a, b := cp.Steps[i-1], cp.Steps[i]
			if a.Node.Rank == b.Node.Rank {
				continue
			}
			if !isExported(a.Node.Rank) || !isExported(b.Node.Rank) {
				continue
			}
			if !t.hasEvent(a.Node.Rank, a.Node.Event) || !t.hasEvent(b.Node.Rank, b.Node.Event) {
				continue
			}
			cid++
			// The path is the argmax chain in delay space, so a step's
			// predecessor can sit later on the absolute clock than the
			// step itself (its traced time was earlier, its delay larger).
			// Clamp the arrowhead forward: trace-event flows must not
			// travel backward in time (Validate enforces this), and the
			// arrow still lands on the correct track and event.
			sTs := t.nodeTime(a.Node)
			fTs := t.nodeTime(b.Node)
			if fTs < sTs {
				fTs = sTs
			}
			ew.emit(traceEvent{Name: "critpath", Cat: catCritpath, Ph: "s", Ts: sTs, Pid: pidRanks, Tid: a.Node.Rank, ID: cid})
			ew.emit(traceEvent{Name: "critpath", Cat: catCritpath, Ph: "f", Ts: fTs, Pid: pidRanks, Tid: b.Node.Rank, ID: cid, BP: "e"})
		}
	}

	// Windowed metric counters, aggregated over every rank.
	wins, w0, wsize, err := t.WindowMetrics(opts.Window)
	if err != nil {
		return err
	}
	for i, m := range wins {
		ts := w0 + float64(i)*wsize
		ew.emit(traceEvent{Name: "parallel_efficiency", Ph: "C", Ts: ts, Pid: pidRanks, Args: valueArgs(m.ParallelEfficiency)})
		ew.emit(traceEvent{Name: "comm_fraction", Ph: "C", Ts: ts, Pid: pidRanks, Args: valueArgs(m.CommFraction)})
		ew.emit(traceEvent{Name: "load_balance", Ph: "C", Ts: ts, Pid: pidRanks, Args: valueArgs(m.LoadBalance)})
	}

	if opts.Spans != nil {
		emitSpans(ew, opts.Spans)
	}
	return ew.close()
}

// nodeTime is the track time of a critical-path node: the event's
// perturbed start for a start subevent, its end for an end subevent.
func (t *Timeline) nodeTime(n core.NodeRef) float64 {
	e := &t.Ranks[n.Rank][n.Event]
	if n.End {
		return e.End
	}
	return e.Start
}

// WindowMetrics splits the timeline's span into fixed windows and
// computes the standard time-resolved metrics per window over all
// ranks: parallel efficiency (compute time / total rank-time),
// communication fraction (communication + wait time / total rank-time)
// and load balance (mean/max of per-rank compute time; 1 = balanced).
// window <= 0 splits the span into about 60 windows. Returns the
// windows plus the grid origin and width.
func (t *Timeline) WindowMetrics(window float64) ([]WindowMetric, float64, float64, error) {
	lo, hi, ok := t.Span(nil)
	if !ok || !(hi > lo) {
		return nil, 0, 0, nil
	}
	if window <= 0 {
		window = math.Ceil((hi - lo) / 60)
		if window < 1 {
			window = 1
		}
	}
	nwin := int(math.Ceil((hi - lo) / window))
	if nwin < 1 {
		nwin = 1
	}
	if nwin > maxWindows {
		return nil, 0, 0, fmt.Errorf("timeline: window %g over span %g yields %d windows (max %d)", window, hi-lo, nwin, maxWindows)
	}
	n := len(t.Ranks)
	compute := make([]float64, nwin*n) // window-major per-rank compute time
	comm := make([]float64, nwin)      // communication + wait, summed over ranks
	accumulate := func(rank int, segLo, segHi float64, isComm bool) {
		if !(segHi > segLo) {
			return
		}
		first := int((segLo - lo) / window)
		if first < 0 {
			first = 0
		}
		for wi := first; wi < nwin; wi++ {
			wLo := lo + float64(wi)*window
			if !(wLo < segHi) {
				break
			}
			wHi := wLo + window
			ov := math.Min(segHi, wHi) - math.Max(segLo, wLo)
			if ov > 0 {
				if isComm {
					comm[wi] += ov
				} else {
					compute[wi*n+rank] += ov
				}
			}
		}
	}
	for r, evs := range t.Ranks {
		prevEnd := 0.0
		started := false
		for i := range evs {
			e := &evs[i]
			if started {
				accumulate(r, prevEnd, e.Start, false) // compute gap
			}
			isComm := e.Kind.IsPointToPoint() || e.Kind.IsCompletion() || e.Kind.IsCollective()
			accumulate(r, e.Start, e.WaitStart, isComm)
			accumulate(r, e.WaitStart, e.End, true) // waits always count as communication
			prevEnd = e.End
			started = true
		}
	}
	out := make([]WindowMetric, nwin)
	for wi := 0; wi < nwin; wi++ {
		var sum, max float64
		for r := 0; r < n; r++ {
			v := compute[wi*n+r]
			sum += v
			if v > max {
				max = v
			}
		}
		denom := float64(n) * window
		m := &out[wi]
		m.ParallelEfficiency = sum / denom
		m.CommFraction = comm[wi] / denom
		m.LoadBalance = 1.0
		if max > 0 {
			m.LoadBalance = sum / float64(n) / max
		}
	}
	return out, lo, window, nil
}

// WindowMetric is one counter window's aggregate.
type WindowMetric struct {
	ParallelEfficiency float64
	CommFraction       float64
	LoadBalance        float64
}

// emitSpans renders engine self-spans as a second process: spans are
// packed greedily onto concurrency lanes (a span goes to the first
// lane free at its start), one thread per lane, timestamps converted
// from wall-clock nanoseconds to microseconds.
func emitSpans(ew *eventWriter, spans []obsv.Span) {
	ordered := slices.Clone(spans)
	slices.SortFunc(ordered, func(a, b obsv.Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.End, b.End); c != 0 {
			return c
		}
		return cmp.Compare(a.Name, b.Name)
	})
	var laneEnd []int64
	lanes := make([]int, len(ordered))
	for i, s := range ordered {
		lane := -1
		for l, end := range laneEnd {
			if end <= s.Start {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		lanes[i] = lane
	}
	ew.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidEngine, Args: nameArgs("engine")})
	for l := range laneEnd {
		ew.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidEngine, Tid: l, Args: numberedArgs("lane ", l)})
		ew.emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: pidEngine, Tid: l, Args: sortIndexArgs(l)})
	}
	for i, s := range ordered {
		start := float64(s.Start) / 1e3
		end := float64(s.End) / 1e3
		if end < start {
			end = start
		}
		ew.emit(traceEvent{Name: s.Name, Cat: "engine", Ph: "B", Ts: start, Pid: pidEngine, Tid: lanes[i]})
		ew.emit(traceEvent{Ph: "E", Ts: end, Pid: pidEngine, Tid: lanes[i]})
	}
}

// WriteSpansJSON exports engine self-spans alone as a trace-event
// document — the -selftrace output of CLIs that have no simulated
// timeline to attach the spans to.
func WriteSpansJSON(w io.Writer, spans []obsv.Span) error {
	ew := newEventWriter(w)
	emitSpans(ew, spans)
	return ew.close()
}
