package obsv

import (
	"sort"
	"sync/atomic"
	"time"
)

// Span is one completed engine self-profiling interval: a named span of
// wall time recorded by the code being observed (compile, a replay, a
// sweep point, a verify phase). Timestamps are nanoseconds since the
// owning buffer's epoch, so spans from one buffer order against each
// other even across goroutines.
type Span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// SpanBuffer is a fixed-capacity lock-free ring of completed spans.
// Writers claim slots with one atomic increment and publish the span
// with one atomic pointer store, so recording is safe from any number
// of goroutines (the parallel worker pool records concurrently) and
// never blocks; once the ring wraps, the oldest spans are overwritten.
// A nil buffer no-ops everywhere, matching the package's nil-safe
// instrument contract.
type SpanBuffer struct {
	epoch time.Time
	slots []atomic.Pointer[Span]
	next  atomic.Uint64
}

// DefaultSpanCapacity is the ring size EnableSpans allocates.
const DefaultSpanCapacity = 4096

// NewSpanBuffer returns a ring holding up to capacity completed spans
// (DefaultSpanCapacity when capacity is not positive).
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanBuffer{
		epoch: time.Now(),
		slots: make([]atomic.Pointer[Span], capacity),
	}
}

// Now returns the buffer-relative timestamp for an explicit
// Record call (0 for a nil buffer).
func (b *SpanBuffer) Now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// Record publishes one completed span with explicit buffer-relative
// timestamps (from Now).
func (b *SpanBuffer) Record(name string, startNS, endNS int64) {
	if b == nil {
		return
	}
	i := (b.next.Add(1) - 1) % uint64(len(b.slots))
	b.slots[i].Store(&Span{Name: name, Start: startNS, End: endNS})
}

// Len returns the number of spans recorded so far, including any that
// have been overwritten after the ring wrapped (0 for nil).
func (b *SpanBuffer) Len() int64 {
	if b == nil {
		return 0
	}
	return int64(b.next.Load())
}

// Snapshot copies out the currently held spans, sorted by start time
// then name (the claim counter orders slots, but publication races mean
// slot order alone is not meaningful). A nil buffer yields nil.
func (b *SpanBuffer) Snapshot() []Span {
	if b == nil {
		return nil
	}
	out := make([]Span, 0, len(b.slots))
	for i := range b.slots {
		if s := b.slots[i].Load(); s != nil {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].End < out[j].End
	})
	return out
}

// EnableSpans switches on self-span recording into a ring of
// DefaultSpanCapacity spans. Idempotent: the first enable wins and
// later calls keep the existing buffer, so already-recorded spans
// survive. No-op on a nil registry.
func (r *Registry) EnableSpans() {
	if r == nil {
		return
	}
	r.spans.CompareAndSwap(nil, NewSpanBuffer(DefaultSpanCapacity))
}

// Spans returns the registry's span ring, or nil when disabled (or the
// registry is nil).
func (r *Registry) Spans() *SpanBuffer {
	if r == nil {
		return nil
	}
	return r.spans.Load()
}
