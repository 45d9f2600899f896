package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"mpgraph/internal/obsv"
)

// The reference exporter: the encoding/json emitter the append-only
// encoder replaced, kept as it was as the oracle the differential tests
// compare against. Each event goes through json.Marshal of a struct
// whose field order and omitempty tags define the document's layout.

type refTraceEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// refEvent converts an event of the new encoder to the reference
// layout, with its typed args as the map the reference emitter built.
func refEvent(e *traceEvent) refTraceEvent {
	r := refTraceEvent{Name: e.Name, Cat: e.Cat, Ph: e.Ph, Ts: e.Ts, Pid: e.Pid, Tid: e.Tid, ID: e.ID, BP: e.BP}
	switch a := e.Args; a.kind {
	case argsName:
		r.Args = map[string]any{"name": a.name}
	case argsNumbered:
		r.Args = map[string]any{"name": fmt.Sprintf("%s%d", a.name, a.n)}
	case argsSortIndex:
		r.Args = map[string]any{"sort_index": a.n}
	case argsValue:
		r.Args = map[string]any{"value": a.value}
	}
	return r
}

type refEventWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (ew *refEventWriter) emit(e refTraceEvent) {
	if ew.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		ew.err = err
		return
	}
	if ew.first {
		ew.first = false
	} else {
		ew.w.WriteString(",\n") //nolint:errcheck
	}
	_, ew.err = ew.w.Write(b)
}

func refWriteJSON(t *Timeline, w io.Writer, opts ExportOptions) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	ew := &refEventWriter{w: bw, first: true}

	sel := opts.Ranks
	exported := make(map[int]bool)
	ew.emit(refTraceEvent{Name: "process_name", Ph: "M", Pid: pidRanks, Args: map[string]any{"name": "simulated ranks"}})
	for r, evs := range t.Ranks {
		if sel != nil && !slices.Contains(sel, r) {
			continue
		}
		if len(evs) == 0 {
			continue
		}
		exported[r] = true
		ew.emit(refTraceEvent{Name: "thread_name", Ph: "M", Pid: pidRanks, Tid: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}})
		ew.emit(refTraceEvent{Name: "thread_sort_index", Ph: "M", Pid: pidRanks, Tid: r, Args: map[string]any{"sort_index": r}})
	}

	for r, evs := range t.Ranks {
		if !exported[r] {
			continue
		}
		prevEnd := math.Inf(-1)
		started := false
		for i := range evs {
			e := &evs[i]
			if started && e.Start > prevEnd {
				ew.emit(refTraceEvent{Name: "compute", Cat: catCompute, Ph: "B", Ts: prevEnd, Pid: pidRanks, Tid: r})
				ew.emit(refTraceEvent{Ph: "E", Ts: e.Start, Pid: pidRanks, Tid: r})
			}
			if e.WaitStart > e.Start {
				ew.emit(refTraceEvent{Name: e.Kind.String(), Cat: catOp, Ph: "B", Ts: e.Start, Pid: pidRanks, Tid: r})
				ew.emit(refTraceEvent{Ph: "E", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
			}
			if e.End > e.WaitStart {
				ew.emit(refTraceEvent{Name: "wait:" + e.State.String(), Cat: catWait, Ph: "B", Ts: e.WaitStart, Pid: pidRanks, Tid: r})
				ew.emit(refTraceEvent{Ph: "E", Ts: e.End, Pid: pidRanks, Tid: r})
			}
			prevEnd = e.End
			started = true
		}
	}

	flows := append([]Flow(nil), t.Flows...)
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].DstRank != flows[j].DstRank {
			return flows[i].DstRank < flows[j].DstRank
		}
		return flows[i].DstEvent < flows[j].DstEvent
	})
	var id int64
	for _, f := range flows {
		if !exported[f.SrcRank] || !exported[f.DstRank] {
			continue
		}
		src := &t.Ranks[f.SrcRank][f.SrcEvent]
		dst := &t.Ranks[f.DstRank][f.DstEvent]
		id++
		ew.emit(refTraceEvent{Name: "msg", Cat: catDataflow, Ph: "s", Ts: src.Start, Pid: pidRanks, Tid: f.SrcRank, ID: id})
		ew.emit(refTraceEvent{Name: "msg", Cat: catDataflow, Ph: "f", Ts: dst.End, Pid: pidRanks, Tid: f.DstRank, ID: id, BP: "e"})
	}

	if cp := opts.CritPath; cp != nil {
		var cid int64
		for i := 1; i < len(cp.Steps); i++ {
			a, b := cp.Steps[i-1], cp.Steps[i]
			if a.Node.Rank == b.Node.Rank {
				continue
			}
			if !exported[a.Node.Rank] || !exported[b.Node.Rank] {
				continue
			}
			if !t.hasEvent(a.Node.Rank, a.Node.Event) || !t.hasEvent(b.Node.Rank, b.Node.Event) {
				continue
			}
			cid++
			sTs := t.nodeTime(a.Node)
			fTs := t.nodeTime(b.Node)
			if fTs < sTs {
				fTs = sTs
			}
			ew.emit(refTraceEvent{Name: "critpath", Cat: catCritpath, Ph: "s", Ts: sTs, Pid: pidRanks, Tid: a.Node.Rank, ID: cid})
			ew.emit(refTraceEvent{Name: "critpath", Cat: catCritpath, Ph: "f", Ts: fTs, Pid: pidRanks, Tid: b.Node.Rank, ID: cid, BP: "e"})
		}
	}

	wins, w0, wsize, err := t.WindowMetrics(opts.Window)
	if err != nil {
		return err
	}
	for i, m := range wins {
		ts := w0 + float64(i)*wsize
		ew.emit(refTraceEvent{Name: "parallel_efficiency", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.ParallelEfficiency}})
		ew.emit(refTraceEvent{Name: "comm_fraction", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.CommFraction}})
		ew.emit(refTraceEvent{Name: "load_balance", Ph: "C", Ts: ts, Pid: pidRanks, Args: map[string]any{"value": m.LoadBalance}})
	}

	if opts.Spans != nil {
		refEmitSpans(ew, opts.Spans)
	}

	if ew.err != nil {
		return ew.err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func refEmitSpans(ew *refEventWriter, spans []obsv.Span) {
	ordered := append([]obsv.Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		if ordered[i].End != ordered[j].End {
			return ordered[i].End < ordered[j].End
		}
		return ordered[i].Name < ordered[j].Name
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
	ew.emit(refTraceEvent{Name: "process_name", Ph: "M", Pid: pidEngine, Args: map[string]any{"name": "engine"}})
	for l := range laneEnd {
		ew.emit(refTraceEvent{Name: "thread_name", Ph: "M", Pid: pidEngine, Tid: l, Args: map[string]any{"name": fmt.Sprintf("lane %d", l)}})
		ew.emit(refTraceEvent{Name: "thread_sort_index", Ph: "M", Pid: pidEngine, Tid: l, Args: map[string]any{"sort_index": l}})
	}
	for i, s := range ordered {
		start := float64(s.Start) / 1e3
		end := float64(s.End) / 1e3
		if end < start {
			end = start
		}
		ew.emit(refTraceEvent{Name: s.Name, Cat: "engine", Ph: "B", Ts: start, Pid: pidEngine, Tid: lanes[i]})
		ew.emit(refTraceEvent{Ph: "E", Ts: end, Pid: pidEngine, Tid: lanes[i]})
	}
}

func refWriteSpansJSON(w io.Writer, spans []obsv.Span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	ew := &refEventWriter{w: bw, first: true}
	refEmitSpans(ew, spans)
	if ew.err != nil {
		return ew.err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
