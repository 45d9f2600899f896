// Package obsv is the engine's zero-dependency observability layer: a
// metrics registry of counters, gauges, fixed-bucket histograms and
// monotonic phase timers, all lock-free on the hot path (atomics only;
// the registry mutex is touched solely when an instrument is first
// created), snapshot-exportable as JSON or text.
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
	"sort"
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

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges of the finite buckets; one implicit overflow
// bucket catches everything above the last bound.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, neu) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor (the usual latency-histogram shape).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Timer accumulates wall time over phases or operations. Durations
// come from time.Since, which uses the monotonic clock, so timers are
// immune to wall-clock steps.
type Timer struct {
	ns    atomic.Int64
	count atomic.Int64
}

// Start begins one timed span; the returned stop function commits it.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	//mpg:lint-ignore detreach out-of-band span timing (DESIGN §7): wall time feeds the registry only, never analysis results
	begin := time.Now()
	//mpg:lint-ignore detreach out-of-band span timing (DESIGN §7): wall time feeds the registry only, never analysis results
	return func() { t.Observe(time.Since(begin)) }
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

// Registry holds named instruments. Lookup lazily creates; an existing
// name always returns the same instrument, so concurrent users share
// state. The zero-value-adjacent nil *Registry is the disabled layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer

	// spans is the self-profiling ring, nil until EnableSpans; kept as
	// an atomic pointer so SpanStart stays lock-free (see span.go).
	spans atomic.Pointer[SpanBuffer]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
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

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later callers' bounds are ignored; the first
// registration wins). Bounds must be sorted ascending.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
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

// HistogramSnapshot is one histogram's exported state. Counts has one
// entry per finite bound plus a trailing overflow bucket. P50/P90/P99
// are bucket-interpolated quantile estimates (see Quantile), computed
// at snapshot time.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"`
	P50    float64   `json:"p50,omitempty"`
	P90    float64   `json:"p90,omitempty"`
	P99    float64   `json:"p99,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation inside the containing bucket, taking 0
// as the first bucket's lower edge. Observations in the overflow bucket
// have no finite upper edge, so a quantile landing there reports the
// last finite bound (the estimate saturates). Returns 0 when the
// histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	if target < 1 {
		target = 1 // any quantile of one observation is that observation
	}
	var cum int64
	for i, c := range h.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < target {
			continue
		}
		if i < len(h.Bounds) {
			lower := 0.0
			if i > 0 {
				lower = h.Bounds[i-1]
			}
			return lower + (target-prev)/float64(c)*(h.Bounds[i]-lower)
		}
		// Overflow bucket.
		if len(h.Bounds) == 0 {
			return h.Sum / float64(h.Count)
		}
		return h.Bounds[len(h.Bounds)-1]
	}
	// Unreachable: cum == Count >= target after the last bucket.
	return h.Sum / float64(h.Count)
}

// TimerSnapshot is one timer's exported state.
type TimerSnapshot struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
}

// Snapshot is a point-in-time copy of every instrument, ready for
// JSON (map keys marshal sorted, so output is deterministic given
// deterministic values) or aligned-text export.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
}

// Snapshot copies the registry's current state. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Timers:     map[string]TimerSnapshot{},
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
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		hs.P50 = hs.Quantile(0.50)
		hs.P90 = hs.Quantile(0.90)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[name] = hs
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
