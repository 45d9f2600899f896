// Package mpi is a deterministic simulated MPI-1 runtime. Programs are
// ordinary Go functions of a *Rank handle; each rank runs as a
// coroutine (iter.Pull), and the runtime resumes them one at a time in
// virtual time order, lowest (now, rank) first, so a run is a
// sequential, perfectly reproducible discrete simulation whose only
// "time" is the virtual cycle counter.
//
// The runtime plays the role of the MPI library plus cluster in the
// paper's pipeline: it executes workloads on a machine model
// (internal/machine) and, through its built-in PMPI-style tracing
// layer, emits the per-rank event traces (internal/trace) that the
// graph builder (internal/core) consumes. Blocking and nonblocking
// point-to-point semantics, collectives, and communicators follow the
// MPI-1 subset the paper treats in Section 3.
package mpi

import (
	"errors"
	"fmt"
	"iter"
	"sort"

	"mpgraph/internal/machine"
	"mpgraph/internal/trace"
)

// Program is the per-rank body of a parallel run. It is invoked once
// per rank with that rank's handle. Returning a non-nil error aborts
// the whole run.
type Program func(r *Rank) error

// Config configures a run.
type Config struct {
	// Machine is the platform model configuration. Machine.NRanks is
	// the world size.
	Machine machine.Config
	// TraceBufferCap is the PMPI buffer capacity in records (Section 4
	// of the paper: the memory-resident buffer dumped when full).
	// Default 4096.
	TraceBufferCap int
	// TraceMeta is added to every rank's trace header.
	TraceMeta map[string]string
	// TraceDir, when non-empty, writes per-rank trace files there
	// instead of collecting traces in memory.
	TraceDir string
	// DisableTracing turns the tracing layer off entirely (used by
	// microbenchmarks probing the raw machine).
	DisableTracing bool
}

// Stats aggregates counters over a run.
type Stats struct {
	// Messages is the number of point-to-point transfers completed.
	Messages int64
	// BytesSent is the total point-to-point payload volume.
	BytesSent int64
	// Collectives is the number of collective operations (counted once
	// per operation, not per rank).
	Collectives int64
	// Events is the total number of trace records emitted.
	Events int64
}

// Result describes a completed run.
type Result struct {
	// Traces holds the in-memory per-rank traces (nil when TraceDir or
	// DisableTracing was used).
	Traces []*trace.MemTrace
	// FinalGlobal is each rank's final global virtual time.
	FinalGlobal []int64
	// Makespan is the maximum of FinalGlobal.
	Makespan int64
	// Stats holds run counters.
	Stats Stats
}

// TraceSet wraps the in-memory traces as a trace.Set.
func (r *Result) TraceSet() (*trace.Set, error) {
	if r.Traces == nil {
		return nil, errors.New("mpi: run did not collect in-memory traces")
	}
	return trace.SetFromMem(r.Traces)
}

// errAborted unwinds a rank's coroutine when the world aborts.
var errAborted = errors.New("mpi: run aborted")

type procState uint8

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// proc is the runtime's per-rank bookkeeping.
type proc struct {
	rank  int
	now   int64 // global virtual time
	state procState
	err   error
	on    blockedOn // what a blocked proc waits for, for deadlock reports

	// The rank body runs as a coroutine under iter.Pull: next runs it
	// until it parks or finishes, park (called on the coroutine) hands
	// control back and reports false once the run aborts, and stop
	// unwinds a parked coroutine.
	next func() (struct{}, bool)
	park func(struct{}) bool
	stop func()

	reqSeq uint64
	tracer *tracer
}

// World is one run in progress.
type World struct {
	cfg   Config
	m     *machine.Machine
	procs []*proc
	ready readyHeap

	queues    map[chanKey]*matchQueue
	colls     map[collKey]*collSync
	wildSends map[wildKey][]*xfer
	wildRecvs map[wildKey][]*wildRecv

	nextCommID int32

	stats Stats
}

// Run executes program on a fresh world and returns the result.
func Run(cfg Config, program Program) (*Result, error) {
	if cfg.TraceBufferCap <= 0 {
		cfg.TraceBufferCap = 4096
	}
	m, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	n := m.NRanks()
	w := &World{
		cfg:        cfg,
		m:          m,
		procs:      make([]*proc, n),
		ready:      make(readyHeap, 0, n),
		queues:     make(map[chanKey]*matchQueue),
		colls:      make(map[collKey]*collSync),
		wildSends:  make(map[wildKey][]*xfer),
		wildRecvs:  make(map[wildKey][]*wildRecv),
		nextCommID: 1,
	}

	sinks := make([]recordSink, n)
	var closers []func() error
	for rank := 0; rank < n; rank++ {
		hdr := trace.Header{Rank: rank, NRanks: n, Meta: cfg.TraceMeta}
		switch {
		case cfg.DisableTracing:
			sinks[rank] = nopSink{}
		case cfg.TraceDir != "":
			fw, closeFn, err := trace.CreateFileWriter(cfg.TraceDir, hdr, cfg.TraceBufferCap)
			if err != nil {
				// The set-up error is the one to report; the writers
				// already opened only need their handles released.
				for _, closeFn := range closers {
					_ = closeFn()
				}
				return nil, err
			}
			sinks[rank] = writerSink{w: fw}
			closers = append(closers, closeFn)
		default:
			sinks[rank] = &memSink{mem: &trace.MemTrace{Hdr: hdr}}
		}
	}

	for rank := 0; rank < n; rank++ {
		p := &proc{rank: rank, state: stateReady}
		p.tracer = &tracer{world: w, rank: rank, sink: sinks[rank]}
		p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
			p.park = park
			w.runProc(p, program)
		})
		w.procs[rank] = p
		w.ready.push(p)
	}

	runErr := w.schedule()

	// Finalize traces.
	res := &Result{FinalGlobal: make([]int64, n), Stats: w.stats}
	for rank := 0; rank < n; rank++ {
		res.FinalGlobal[rank] = w.procs[rank].now
		if res.FinalGlobal[rank] > res.Makespan {
			res.Makespan = res.FinalGlobal[rank]
		}
	}
	for _, closeFn := range closers {
		if err := closeFn(); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if !cfg.DisableTracing && cfg.TraceDir == "" {
		res.Traces = make([]*trace.MemTrace, n)
		for rank := 0; rank < n; rank++ {
			res.Traces[rank] = sinks[rank].(*memSink).mem
		}
	}
	return res, nil
}

// runProc is the rank coroutine body.
func (w *World) runProc(p *proc, program Program) {
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errAborted) {
				p.err = errAborted
			} else {
				p.err = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
			}
		}
		p.state = stateDone
	}()
	rank := &Rank{world: w, proc: p}
	rank.init()
	if err := program(rank); err != nil {
		p.err = fmt.Errorf("mpi: rank %d: %w", p.rank, err)
		return
	}
	rank.finalize()
}

// schedule is the deterministic run loop: repeatedly resume the ready
// proc with the smallest virtual time (ties broken by rank) until it
// parks, and stop when all procs are done or none can run.
func (w *World) schedule() error {
	for len(w.ready) > 0 {
		p := w.ready.pop()
		p.state = stateRunning
		p.next()
		if p.err != nil {
			// A rank failed; stop everything.
			w.abortAll()
			return w.collectErrors()
		}
	}
	if w.allDone() {
		return w.collectErrors()
	}
	// Deadlock: abort the stragglers.
	deadlockErr := w.deadlockError()
	w.abortAll()
	if err := w.collectErrors(); err != nil {
		return err
	}
	return deadlockErr
}

func (w *World) allDone() bool {
	for _, p := range w.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// abortAll unwinds every unfinished proc: stopping a parked coroutine
// makes its pending park report false, so the rank panics errAborted
// and runProc records it. A coroutine that never ran just ends, and
// stopping a finished one is a no-op.
func (w *World) abortAll() {
	for _, p := range w.procs {
		p.stop()
	}
}

func (w *World) collectErrors() error {
	var errs []error
	for _, p := range w.procs {
		if p.err != nil && !errors.Is(p.err, errAborted) {
			errs = append(errs, p.err)
		}
	}
	return errors.Join(errs...)
}

func (w *World) deadlockError() error {
	var stuck []string
	for _, p := range w.procs {
		if p.state == stateBlocked {
			stuck = append(stuck, fmt.Sprintf("rank %d: %s", p.rank, p.on))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("mpi: deadlock; blocked ranks: %v", stuck)
}

// yield ends the calling proc's turn with the proc still runnable. If
// the proc still precedes every ready proc, the scheduler would resume
// it at once, so it keeps running without a switch.
func (w *World) yield(p *proc) {
	if len(w.ready) == 0 || p.before(w.ready[0]) {
		return
	}
	p.state = stateReady
	w.ready.push(p)
	p.suspend()
}

// block parks the proc until another rank unblocks it.
func (w *World) block(p *proc, on blockedOn) {
	p.state = stateBlocked
	p.on = on
	p.suspend()
}

// suspend hands control back to the scheduler until the proc is
// resumed, and unwinds the rank if the run aborts meanwhile.
func (p *proc) suspend() {
	if !p.park(struct{}{}) {
		panic(errAborted)
	}
}

// unblock marks a blocked proc runnable at global time t.
func (w *World) unblock(p *proc, t int64) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("mpi: unblock of rank %d in state %d", p.rank, p.state))
	}
	if t > p.now {
		p.now = t
	}
	p.state = stateReady
	w.ready.push(p)
}

// before reports whether p runs before q: lower virtual time first,
// ties to the lower rank.
func (p *proc) before(q *proc) bool {
	return p.now < q.now || (p.now == q.now && p.rank < q.rank)
}

// readyHeap is a binary min-heap of the ready procs in schedule order.
// A proc's key cannot change while it waits in the heap: only running
// code moves its own clock, and unblock sets the clock before the push.
type readyHeap []*proc

func (h *readyHeap) push(p *proc) {
	s := append(*h, p)
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func (h *readyHeap) pop() *proc {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil
	s = s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// blockedOn records what a blocked proc waits for; it is formatted only
// when a deadlock is reported. kind names the operation: KindSend and
// KindRecv for blocking point-to-point calls (peer NoRank is a wildcard
// receive), KindIsend and KindIrecv for a wait on that kind of request,
// and the collective's own kind otherwise.
type blockedOn struct {
	kind trace.Kind
	peer int32 // world rank
	comm int32
	tag  int64
	seq  int64
}

func (b blockedOn) String() string {
	switch b.kind {
	case trace.KindSend:
		return fmt.Sprintf("send(dst=%d tag=%d)", b.peer, b.tag)
	case trace.KindRecv:
		if b.peer == trace.NoRank {
			return fmt.Sprintf("recv(src=ANY tag=%d)", b.tag)
		}
		return fmt.Sprintf("recv(src=%d tag=%d)", b.peer, b.tag)
	case trace.KindIsend:
		return fmt.Sprintf("wait(send tag=%d peer=%d)", b.tag, b.peer)
	case trace.KindIrecv:
		return fmt.Sprintf("wait(recv tag=%d peer=%d)", b.tag, b.peer)
	}
	return fmt.Sprintf("%s(comm=%d seq=%d)", b.kind, b.comm, b.seq)
}
