package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mpgraph/internal/core"
	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
	"mpgraph/internal/report"
	"mpgraph/internal/timeline"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// work is what one layer call processed: n units (events, replays or
// reports) and, for the codec and the export, bytes.
type work struct {
	n     float64
	bytes int64
}

// span is one timed call. Times are nanoseconds since the tracer's
// epoch; root is the id of the outermost span ("setup", "op", "check"
// or "probe") and op the user op it belongs to (−1 outside ops).
type span struct {
	id, parent, root, op int
	name                 string
	start, end           int64
	work
}

// tracer keeps the traced run's spans in memory. Spans may be recorded
// from any goroutine; the worker pool's tasks record theirs.
type tracer struct {
	epoch time.Time
	reg   *obsv.Registry // engine counters of the traced ops

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), reg: obsv.NewRegistry()} }

// root runs fn under a new outermost span for op (−1 outside ops).
func (t *tracer) root(op int, name string, fn func(id int) (work, error)) error {
	return t.span(op, -1, name, fn)
}

// run runs fn under a child span of parent. A nil tracer runs fn
// without recording anything.
func (t *tracer) run(parent int, name string, fn func(id int) (work, error)) error {
	return t.span(-1, parent, name, fn)
}

func (t *tracer) span(op, parent int, name string, fn func(id int) (work, error)) error {
	if t == nil {
		_, err := fn(-1)
		return err
	}
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	s := span{id: id, parent: parent, root: id, op: op, name: name, start: start}
	if parent >= 0 {
		s.root, s.op = t.spans[parent].root, t.spans[parent].op
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	w, err := fn(id)
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end, t.spans[id].work = end, w
	t.mu.Unlock()
	return err
}

func (s span) dur() int64 { return s.end - s.start }

// inOp reports whether s lies inside a user op.
func (t *tracer) inOp(s span) bool { return t.spans[s.root].name == "op" }

// children lists each span's direct children in start order.
func (t *tracer) children() [][]int {
	kids := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s.id)
		}
	}
	for _, k := range kids {
		sort.Slice(k, func(a, b int) bool { return t.spans[k[a]].start < t.spans[k[b]].start })
	}
	return kids
}

// selfTimes returns each span's duration minus the part of it that
// its children cover.
func (t *tracer) selfTimes() []int64 {
	kids := t.children()
	self := make([]int64, len(t.spans))
	for id, s := range t.spans {
		covered, reach := int64(0), s.start
		for _, c := range kids[id] {
			cs := t.spans[c]
			lo := max(cs.start, reach)
			if cs.end > lo {
				covered += cs.end - lo
				reach = cs.end
			}
		}
		self[id] = s.dur() - covered
	}
	return self
}

// opShares splits the wall time of every traced op among the layers
// doing the work: at each instant, equally among the innermost open
// spans, so concurrent pool tasks share the instant and the parts sum
// to the op's wall time. The "op" entry is time no layer span covers.
// It also returns the ops' total wall time, each op's wall time in ms,
// and the busy time of the worker pool's tasks.
func (t *tracer) opShares() (self map[string]float64, wall float64, opMS []float64, busy float64) {
	self = map[string]float64{}
	members := map[int][]int{}
	var roots []int
	for _, s := range t.spans {
		if !t.inOp(s) {
			continue
		}
		if s.parent < 0 {
			roots = append(roots, s.id)
			wall += float64(s.dur())
			opMS = append(opMS, float64(s.dur())/1e6)
		} else if t.spans[s.parent].name == "parallel" {
			busy += float64(s.dur())
		}
		members[s.root] = append(members[s.root], s.id)
	}
	type edge struct {
		at   int64
		id   int
		open bool
	}
	for _, root := range roots {
		var edges []edge
		for _, id := range members[root] {
			edges = append(edges, edge{t.spans[id].start, id, true}, edge{t.spans[id].end, id, false})
		}
		sort.Slice(edges, func(a, b int) bool { return edges[a].at < edges[b].at })
		active := map[int]bool{}
		openKids := map[int]int{}
		var leaves []int
		for k := 0; k < len(edges); {
			at := edges[k].at
			for ; k < len(edges) && edges[k].at == at; k++ {
				e := edges[k]
				p := t.spans[e.id].parent
				if e.open {
					active[e.id] = true
					openKids[p]++
				} else {
					delete(active, e.id)
					openKids[p]--
				}
			}
			if k == len(edges) {
				break
			}
			leaves = leaves[:0]
			for id := range active {
				if openKids[id] == 0 {
					leaves = append(leaves, id)
				}
			}
			dt := float64(edges[k].at-at) / float64(len(leaves))
			for _, id := range leaves {
				self[t.spans[id].name] += dt
			}
		}
	}
	return self, wall, opMS, busy
}

// layerAgg sums one layer's spans.
type layerAgg struct {
	calls int
	ns    int64
	work
	first work // the first call's work
}

// aggregate sums every layer's spans, separately for spans inside user
// ops and for the rest (set-up, checks, probes).
func (t *tracer) aggregate() (ops, other map[string]*layerAgg) {
	ops, other = map[string]*layerAgg{}, map[string]*layerAgg{}
	for _, s := range t.spans {
		if s.parent < 0 || s.name == "parallel" {
			continue
		}
		m := other
		if t.inOp(s) {
			m = ops
		}
		a := m[s.name]
		if a == nil {
			a = &layerAgg{first: s.work}
			m[s.name] = a
		}
		a.calls++
		a.ns += s.dur()
		a.n += s.n
		a.bytes += s.bytes
	}
	return ops, other
}

// layerMetrics computes the per-layer metrics. A layer's rates come
// from the spans inside the workload's ops when the ops use the layer,
// and otherwise from set-up and the probes, so every workload reports
// every layer; its share of op time is zero when the ops leave it idle.
func (t *tracer) layerMetrics(pr probeResult, plainMS []float64, eventsPerOp int64, workers int) map[string]float64 {
	ops, other := t.aggregate()
	get := func(layer string) *layerAgg {
		if a := ops[layer]; a != nil {
			return a
		}
		if a := other[layer]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	perUnit := func(layer string) float64 { return ratio(float64(get(layer).ns), get(layer).n) }
	mbPerS := func(layer string) float64 { return ratio(float64(get(layer).bytes)*1e3, float64(get(layer).ns)) }
	msPerCall := func(layer string) float64 { return ratio(float64(get(layer).ns)/1e6, float64(get(layer).calls)) }

	self, wall, opMS, busy := t.opShares()
	share := func(layer string) float64 { return ratio(self[layer], wall) }

	// Replay counters come from the registry that saw the replays the
	// rates are taken from.
	reg, src := t.reg, ops
	if ops["core.replay"] == nil {
		reg, src = pr.reg, other
	}
	snap := reg.Snapshot()
	spanNS := 0.0
	for _, layer := range []string{"core.compile", "core.replay"} {
		if a := src[layer]; a != nil {
			spanNS += float64(a.ns)
		}
	}
	timerNS := (snap.Timers["core_compile"].TotalMS + snap.Timers["core_replay_compiled"].TotalMS) * 1e6
	hits, misses := snap.Counters["core_replay_pool_hits_total"], snap.Counters["core_replay_pool_misses_total"]
	samples := snap.Counters["core_samples_noise_total"] + snap.Counters["core_samples_message_total"]

	return map[string]float64{
		"mpi.trace_gen_ns_per_event":          perUnit("mpi.trace_gen"),
		"mpi.trace_gen_share":                 share("mpi.trace_gen"),
		"mpi.trace_gen_alloc_bytes_per_event": pr.traceGenBytesPerEvent,
		"mpi.events_per_op":                   float64(eventsPerOp),
		"trace.encode_ns_per_event":           perUnit("trace.encode"),
		"trace.bytes_per_event":               ratio(float64(get("trace.encode").bytes), get("trace.encode").n),
		"trace.decode_ns_per_event":           perUnit("trace.decode"),
		"trace.decode_mb_per_s":               mbPerS("trace.decode"),
		"trace.decode_share":                  share("trace.decode"),
		"core.analyze_ns_per_event":           perUnit("core.analyze"),
		"core.analyze_allocs_per_event":       pr.analyzeAllocsPerEvent,
		"core.analyze_share":                  share("core.analyze"),
		"core.window_high_water":              t.reg.Snapshot().Gauges["core_window_high_water"],
		"core.analyze_scaling_1024_over_64":   pr.scaling,
		"core.compile_ns_per_event":           perUnit("core.compile"),
		"core.compile_over_analyze":           pr.compileOverAnalyze,
		"core.compile_share":                  share("core.compile"),
		"core.replay_ns_per_replay":           perUnit("core.replay"),
		"core.replay_allocs_per_replay":       pr.replayAllocs,
		"core.replay_pool_hit_ratio":          ratio(float64(hits), float64(hits+misses)),
		"core.replay_share":                   share("core.replay"),
		"dist.samples_per_replay":             ratio(float64(samples), float64(snap.Counters["core_replays_total"])),
		"parallel.pool_utilization":           ratio(busy, wall*float64(workers)),
		"timeline.record_overhead_ms":         pr.recordOverheadMS,
		"timeline.check_ms":                   msPerCall("timeline.check"),
		"timeline.export_ns_per_event":        perUnit("timeline.export"),
		"timeline.export_mb_per_s":            mbPerS("timeline.export"),
		"timeline.export_bytes":               float64(get("timeline.export").first.bytes),
		"timeline.export_share":               share("timeline.export"),
		"report.ms_per_op":                    msPerCall("report"),
		"bench.tracing_overhead_pct":          (ratio(median(opMS), median(plainMS)) - 1) * 100,
		"bench.unattributed_share":            share("op"),
		"bench.engine_timer_gap_pct":          (ratio(spanNS, timerNS) - 1) * 100,
	}
}

// probeInput is a workload's representative trace. The probes run on
// it every layer the workload's ops leave idle, and the calibrations
// that need many calls on one trace.
type probeInput struct {
	wl     string
	wopts  workloads.Options
	mcfg   machine.Config
	model  *core.Model // the workload's perturbation model
	mems   []*trace.MemTrace
	dir    string // mems, encoded by the traced set-up
	events int64
	bytes  int64 // size of dir
}

// probeResult holds the probe measurements that are not span rates.
type probeResult struct {
	compileOverAnalyze    float64
	recordOverheadMS      float64
	traceGenBytesPerEvent float64
	analyzeAllocsPerEvent float64
	replayAllocs          float64
	scaling               float64
	reg                   *obsv.Registry // engine counters of the probe's compiles and replays
}

// probeCalls is how many calls the compile, analyze and replay probes
// time; compile_over_analyze compares the medians of at least 20 warm
// calls each.
const probeCalls = 20

// runProbes runs, under a "probe" span, every layer on the
// representative trace, then the calibrations that need no spans:
// compile against zero-model analysis, the interval hook's cost,
// allocations, and the analyzer's scaling with world size.
func runProbes(t *tracer, in probeInput, quick bool) (probeResult, error) {
	pr := probeResult{reg: obsv.NewRegistry()}
	events := float64(in.events)
	memSet := func() (*trace.Set, error) { return trace.SetFromMem(in.mems) }
	var c *core.Compiled
	err := t.root(-1, "probe", func(root int) (work, error) {
		for k := 0; k < 3; k++ {
			err := t.run(root, "trace.decode", func(int) (work, error) {
				_, err := readDir(in.dir)
				return work{n: events, bytes: in.bytes}, err
			})
			if err != nil {
				return work{}, err
			}
		}

		// Compile against zero-model analysis of the same trace,
		// alternating, after one untimed call of each.
		var compileNS, analyzeNS []float64
		for k := -1; k < probeCalls; k++ {
			tr, reg := t, pr.reg
			if k < 0 {
				tr, reg = nil, nil
			}
			t0 := time.Now()
			var err error
			if c, err = compile(tr, root, in.mems, in.events, reg); err != nil {
				return work{}, err
			}
			compileNS = append(compileNS, float64(time.Since(t0)))
			t0 = time.Now()
			err = tr.run(root, "core.analyze", func(int) (work, error) {
				set, err := memSet()
				if err != nil {
					return work{}, err
				}
				_, err = core.Analyze(set, &core.Model{}, core.Options{Metrics: reg})
				return work{n: events}, err
			})
			if err != nil {
				return work{}, err
			}
			analyzeNS = append(analyzeNS, float64(time.Since(t0)))
		}
		pr.compileOverAnalyze = ratio(median(compileNS[1:]), median(analyzeNS[1:]))

		// Replays of the workload's model, seeded per trial as the
		// sweeps seed them.
		for k := 0; k < probeCalls; k++ {
			m := in.model.Clone()
			m.Seed = parallel.TaskSeed(in.model.Seed, k)
			err := t.run(root, "core.replay", func(int) (work, error) {
				_, err := core.ReplayCompiled(c, m, core.Options{Metrics: pr.reg})
				return work{n: 1}, err
			})
			if err != nil {
				return work{}, err
			}
		}
		set, err := memSet()
		if err != nil {
			return work{}, err
		}
		want, err := core.Analyze(set, in.model, core.Options{RecordCritPath: true})
		if err != nil {
			return work{}, err
		}
		if set, err = memSet(); err != nil {
			return work{}, err
		}
		if err := checkCompiled(set, in.model, want); err != nil {
			return work{}, err
		}

		// The timeline and the report, on the workload's model.
		tl := timeline.New(len(in.mems))
		if set, err = memSet(); err != nil {
			return work{}, err
		}
		res, err := core.Analyze(set, in.model, core.Options{RecordCritPath: true, Interval: tl.Record})
		if err != nil {
			return work{}, err
		}
		err = t.run(root, "timeline.check", func(int) (work, error) { return work{n: 1}, checkTimeline(tl, res, nil) })
		if err != nil {
			return work{}, err
		}
		var export bytes.Buffer
		err = t.run(root, "timeline.export", func(int) (work, error) {
			err := tl.WriteJSON(&export, timeline.ExportOptions{CritPath: res.CritPath})
			return work{n: events, bytes: int64(export.Len())}, err
		})
		if err != nil {
			return work{}, err
		}
		if msgs := timeline.Validate(export.Bytes()); len(msgs) > 0 {
			return work{}, fmt.Errorf("timeline export: %d contract violations, first: %s", len(msgs), msgs[0])
		}
		var text bytes.Buffer
		return work{}, t.run(root, "report", func(int) (work, error) {
			if err := report.Analysis(&text, res, 32); err != nil {
				return work{n: 1}, err
			}
			return work{n: 1}, report.CritPath(&text, res.CritPath)
		})
	})
	if err != nil {
		return pr, fmt.Errorf("probe: %w", err)
	}
	if pr.recordOverheadMS, err = recordOverhead(in, quick); err != nil {
		return pr, err
	}
	if err := allocProbes(&pr, in, c); err != nil {
		return pr, err
	}
	pr.scaling, err = scalingProbe(quick)
	return pr, err
}

// recordOverhead is the cost of the timeline's interval hook: the
// median analysis with it minus the median analysis without it.
func recordOverhead(in probeInput, quick bool) (float64, error) {
	pairs := 5
	if quick {
		pairs = 2
	}
	var with, without []float64
	for k := 0; k < pairs; k++ {
		for _, hook := range []bool{true, false} {
			set, err := trace.SetFromMem(in.mems)
			if err != nil {
				return 0, err
			}
			opts := core.Options{RecordCritPath: true}
			if hook {
				opts.Interval = timeline.New(len(in.mems)).Record
			}
			t0 := time.Now()
			if _, err := core.Analyze(set, in.model, opts); err != nil {
				return 0, err
			}
			if hook {
				with = append(with, ms(time.Since(t0)))
			} else {
				without = append(without, ms(time.Since(t0)))
			}
		}
	}
	return median(with) - median(without), nil
}

// allocProbes counts the heap allocations of one trace generation, one
// streaming analysis and the warm compiled replays of the workload's
// model. Each runs alone, so the process-wide counters attribute
// exactly.
func allocProbes(pr *probeResult, in probeInput, c *core.Compiled) error {
	_, genBytes, err := allocs(func() error {
		_, _, err := traceGen(nil, -1, in.wl, in.wopts, in.mcfg)
		return err
	})
	if err != nil {
		return err
	}
	pr.traceGenBytesPerEvent = ratio(float64(genBytes), float64(in.events))
	n, _, err := allocs(func() error {
		set, err := trace.SetFromMem(in.mems)
		if err != nil {
			return err
		}
		_, err = core.Analyze(set, in.model, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	pr.analyzeAllocsPerEvent = ratio(float64(n), float64(in.events))
	n, _, err = allocs(func() error {
		for k := 0; k < probeCalls; k++ {
			if _, err := core.ReplayCompiled(c, in.model, core.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
	pr.replayAllocs = ratio(float64(n), probeCalls)
	return err
}

func allocs(fn func() error) (count, bytes uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// scalingProbe is the paper's §6 scalability claim as one number:
// streaming-analysis ns/event on a 1024-rank stencil2d over ns/event on
// a 64-rank one, with the events per rank fixed, under the analysis
// workloads' model. The two sizes alternate, so that both see the same
// host speed, and each contributes the median of its analyses.
func scalingProbe(quick bool) (float64, error) {
	sizes := []int{64, 1024}
	if quick {
		sizes = []int{4, 16}
	}
	mems := make([][]*trace.MemTrace, len(sizes))
	events := make([]int64, len(sizes))
	for k, ranks := range sizes {
		var err error
		mems[k], events[k], err = traceGen(nil, -1, "stencil2d", workloads.Options{Iterations: 4}, tracingMachine(1, ranks))
		if err != nil {
			return 0, err
		}
	}
	// The small trace has a sixteenth of the events; it runs more often
	// per round.
	reps := []int{4, 1}
	nsPerEvent := make([][]float64, len(sizes))
	for round := 0; round < 15; round++ {
		for k := range sizes {
			for rep := 0; rep < reps[k]; rep++ {
				set, err := trace.SetFromMem(mems[k])
				if err != nil {
					return 0, err
				}
				runtime.GC()
				t0 := time.Now()
				if _, err := core.Analyze(set, whatIfModel(1, round, core.CollectiveApprox), core.Options{}); err != nil {
					return 0, err
				}
				nsPerEvent[k] = append(nsPerEvent[k], float64(time.Since(t0))/float64(events[k]))
			}
		}
	}
	return ratio(median(nsPerEvent[1]), median(nsPerEvent[0])), nil
}

// writeSpans writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open. Tasks of the worker pool get a
// track each; args carry the span's id, parent, op and self time.
func (t *tracer) writeSpans(path, workload string) error {
	self := t.selfTimes()
	kids := t.children()
	lane := make([]int, len(t.spans))
	for id, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name != "parallel" {
			lane[id] = lane[s.parent]
		}
		if s.name != "parallel" {
			continue
		}
		// Pack the pool's tasks greedily onto as few tracks as keep
		// each track's spans nested.
		var free []int64
		for _, c := range kids[id] {
			k := 0
			for k < len(free) && free[k] > t.spans[c].start {
				k++
			}
			if k == len(free) {
				free = append(free, 0)
			}
			free[k] = t.spans[c].end
			lane[c] = lane[id] + k
		}
	}
	type args struct {
		ID     int   `json:"id"`
		Parent int   `json:"parent"`
		Op     int   `json:"op"`
		Start  int64 `json:"start_ns"`
		End    int64 `json:"end_ns"`
		Self   int64 `json:"self_ns"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() //nolint:errcheck // the success path checks Close
	// One event per line, encoded as it is written: a Monte Carlo run
	// records hundreds of thousands of spans.
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","traceEvents":[`+"\n"+`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":%q}}`, "mpg-perf "+workload)
	for id, s := range t.spans {
		line, err := json.Marshal(event{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane[id],
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: args{ID: s.id, Parent: s.parent, Op: s.op, Start: s.start, End: s.end, Self: self[id]},
		})
		if err != nil {
			return err
		}
		w.WriteString(",\n")
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// median is the middle of the samples (interpolated for even counts).
func median(xs []float64) float64 { return dist.Quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
