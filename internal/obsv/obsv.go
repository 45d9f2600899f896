// Package obsv is the engine's zero-dependency observability layer: a
// metrics registry of counters, gauges and monotonic phase timers, all
// lock-free on the hot path (atomics only; the registry mutex is
// touched solely when an instrument is first created), plus an opt-in
// ring of self-profiling spans. Registry.Time is the one wall-time
// instrument for a layer boundary: a single clock reading feeds both
// the boundary's timer and, when spans are on, its span, so the timers
// and the self-trace never disagree. Snapshots export as JSON.
//
// Every accessor and instrument method is nil-safe: a nil *Registry
// hands out nil instruments and nil instruments no-op, so call sites
// never branch on whether observability is enabled. Metrics are
// strictly out-of-band — nothing in this package feeds back into the
// propagation engine, so enabling instrumentation can never change an
// analysis result.
package obsv

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax stores v only if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Timer accumulates wall time over phases or operations. Durations
// come from time.Since, which uses the monotonic clock, so timers are
// immune to wall-clock steps.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Observe adds one measured duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.ns.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration (0 for nil).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Timing is one in-flight measurement handed out by Registry.Time; End
// commits it. The zero Timing, from a nil registry, is inert.
type Timing struct {
	timer *Timer
	spans *SpanBuffer
	name  string
	start time.Time
}

// End adds the elapsed wall time d to the boundary's timer and, when
// spans are enabled, records the same interval (end−d to end, from the
// one clock reading) as a span of the same name. It returns d (0 for
// the inert Timing).
func (t Timing) End() time.Duration {
	if t.timer == nil {
		return 0
	}
	//mpg:lint-ignore detreach out-of-band boundary timing (DESIGN §7): wall time feeds the registry only, never analysis results
	end := time.Now()
	d := end.Sub(t.start)
	t.timer.Observe(d)
	if t.spans != nil {
		e := int64(end.Sub(t.spans.epoch))
		t.spans.Record(t.name, e-int64(d), e)
	}
	return d
}

// Registry holds named instruments. Lookup lazily creates; an existing
// name always returns the same instrument, so concurrent users share
// state. The zero-value-adjacent nil *Registry is the disabled layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer

	// spans is the self-profiling ring, nil until EnableSpans; kept as
	// an atomic pointer so Time stays lock-free (see span.go).
	spans atomic.Pointer[SpanBuffer]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timers[name]
	if t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Time starts timing one pass through the boundary called name; call
// End on the result, typically as defer r.Time(name).End(). A nil
// registry returns an inert Timing without reading the clock, and
// neither call allocates unless spans are enabled.
func (r *Registry) Time(name string) Timing {
	if r == nil {
		return Timing{}
	}
	//mpg:lint-ignore detreach out-of-band boundary timing (DESIGN §7): wall time feeds the registry only, never analysis results
	return Timing{timer: r.Timer(name), spans: r.spans.Load(), name: name, start: time.Now()}
}

// TimerSnapshot is one timer's exported state.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Snapshot is a point-in-time copy of every instrument, ready for
// JSON export (map keys marshal sorted, so output is deterministic
// given deterministic values).
type Snapshot struct {
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]float64       `json:"gauges,omitempty"`
	Timers   map[string]TimerSnapshot `json:"timers,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Timers:   map[string]TimerSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = TimerSnapshot{
			Count:   t.count.Load(),
			TotalMS: float64(t.ns.Load()) / 1e6,
		}
	}
	return s
}

// PhaseMS returns the timers as a name → total-milliseconds map (nil
// when no timers fired), the shape the run-history archive embeds.
func (s Snapshot) PhaseMS() map[string]float64 {
	if len(s.Timers) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.Timers))
	for name, t := range s.Timers {
		out[name] = t.TotalMS
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSONFile writes the snapshot to a file (0644, truncating).
func WriteJSONFile(path string, s Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	return f.Close()
}
