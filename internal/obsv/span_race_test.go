package obsv_test

// External test package: internal/parallel depends on obsv for pool
// metrics, so driving the real worker pool from obsv's own package
// would be an import cycle.

import (
	"testing"

	"mpgraph/internal/obsv"
	"mpgraph/internal/parallel"
)

// TestSpanRecordingConcurrent exercises the lock-free span ring from
// the real parallel worker pool under -race: every task records
// through the shared registry, some tasks race Time against
// EnableSpans, and the final snapshot must be complete and ordered.
func TestSpanRecordingConcurrent(t *testing.T) {
	reg := obsv.NewRegistry()
	const tasks = 512
	_, err := parallel.Map(tasks, parallel.Options{Workers: 8}, func(i int) (struct{}, error) {
		// Racing enables must be safe and must not drop spans: the
		// first EnableSpans wins, later ones keep the buffer.
		reg.EnableSpans()
		tm := reg.Time("task")
		b := reg.Spans()
		b.Record("explicit", b.Now(), b.Now())
		tm.End()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := reg.Spans()
	if b == nil {
		t.Fatal("spans not enabled")
	}
	if got := b.Len(); got != 2*tasks {
		t.Fatalf("recorded %d spans, want %d", got, 2*tasks)
	}
	snap := b.Snapshot()
	if len(snap) != 2*tasks {
		t.Fatalf("snapshot holds %d spans, want %d (ring must not have wrapped)", len(snap), 2*tasks)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Start < snap[i-1].Start {
			t.Fatalf("snapshot unordered at %d: %v then %v", i, snap[i-1], snap[i])
		}
	}
	for _, s := range snap {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
}

// TestSpanBufferWrapConcurrent hammers a tiny ring from many
// goroutines: wrapping writers must never tear a span or crash, and
// the snapshot only ever holds fully published spans.
func TestSpanBufferWrapConcurrent(t *testing.T) {
	b := obsv.NewSpanBuffer(8)
	_, err := parallel.Map(256, parallel.Options{Workers: 8}, func(i int) (struct{}, error) {
		start := b.Now()
		b.Record("w", start, b.Now())
		for _, s := range b.Snapshot() { // concurrent readers are legal
			if s.Name != "w" {
				t.Errorf("torn span: %+v", s)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 256 {
		t.Fatalf("Len = %d, want 256", b.Len())
	}
}
