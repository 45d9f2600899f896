// Package des is a minimal deterministic discrete-event simulation
// kernel: a priority queue of timestamped events with stable FIFO
// ordering among equal timestamps. The Dimemas-like baseline replayer
// (internal/baseline) is built on it, and it is the general framework
// the paper contrasts its direct graph-traversal approach against
// (Section 1: "this is easily modeled as a discrete event simulation
// ... unlike a general discrete event model, we chose to directly
// analyze the message-passing graph").
package des

import "container/heap"

// Event is a unit of scheduled work. Fire runs at the event's
// timestamp and may schedule further events.
type Event interface {
	Fire(sim *Sim)
}

// EventFunc adapts a function to the Event interface.
type EventFunc func(sim *Sim)

// Fire implements Event.
func (f EventFunc) Fire(sim *Sim) { f(sim) }

type entry struct {
	at  int64
	seq uint64 // insertion order; breaks timestamp ties deterministically
	ev  Event
}

type eventHeap []entry

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(entry)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulator instance. The zero value is ready
// to use at time zero.
type Sim struct {
	now      int64
	seq      uint64
	queue    eventHeap
	fired    uint64
	limit    uint64
	limitHit bool
}

// Now returns the current simulation time.
func (s *Sim) Now() int64 { return s.now }

// Fired returns how many events have fired so far.
func (s *Sim) Fired() uint64 { return s.fired }

// At schedules ev to fire at absolute time t. Scheduling in the past
// (t < Now) panics: it would silently reorder causality.
func (s *Sim) At(t int64, ev Event) {
	if t < s.now {
		panic("des: event scheduled in the past")
	}
	s.seq++
	heap.Push(&s.queue, entry{at: t, seq: s.seq, ev: ev})
}

// SetLimit caps the total number of events Run may fire
// (0 = unbounded). When the cap is hit the loop stops with the
// remaining events still queued and LimitReached reports true — a
// safety net for randomized replay campaigns, where a malformed input
// must not turn into an unbounded simulation.
func (s *Sim) SetLimit(n uint64) { s.limit = n }

// LimitReached reports whether a run stopped because the event limit
// was exhausted rather than because the queue drained.
func (s *Sim) LimitReached() bool { return s.limitHit }

// overLimit checks (and records) event-budget exhaustion.
func (s *Sim) overLimit() bool {
	if s.limit > 0 && s.fired >= s.limit {
		s.limitHit = true
		return true
	}
	return false
}

// Run fires events in timestamp order until the queue drains or the
// event limit is reached. It returns the final simulation time.
func (s *Sim) Run() int64 {
	for len(s.queue) > 0 && !s.overLimit() {
		e := heap.Pop(&s.queue).(entry)
		s.now = e.at
		s.fired++
		e.ev.Fire(s)
	}
	return s.now
}
