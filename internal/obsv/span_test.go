package obsv

import (
	"testing"
	"time"
)

func TestSpanBufferRecordAndSnapshot(t *testing.T) {
	b := NewSpanBuffer(8)
	b.Record("b", 100, 200)
	b.Record("a", 100, 150)
	b.Record("c", 50, 60)
	got := b.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot holds %d spans, want 3", len(got))
	}
	// Sorted by start, then name.
	if got[0].Name != "c" || got[1].Name != "a" || got[2].Name != "b" {
		t.Fatalf("snapshot order = %v", got)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestSpanBufferWraps(t *testing.T) {
	b := NewSpanBuffer(4)
	for i := 0; i < 10; i++ {
		b.Record("s", int64(i), int64(i+1))
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10 recorded", b.Len())
	}
	got := b.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring holds %d spans, want capacity 4", len(got))
	}
	for _, s := range got {
		if s.Start < 6 {
			t.Fatalf("old span survived the wrap: %+v", s)
		}
	}
}

func TestSpanStartRecords(t *testing.T) {
	b := NewSpanBuffer(8)
	end := b.Start("work")
	time.Sleep(time.Millisecond)
	end()
	got := b.Snapshot()
	if len(got) != 1 || got[0].Name != "work" {
		t.Fatalf("snapshot = %v", got)
	}
	if got[0].End < got[0].Start {
		t.Fatalf("span ends before it starts: %+v", got[0])
	}
}

func TestSpanNilSafety(t *testing.T) {
	var b *SpanBuffer
	b.Record("x", 0, 1)
	b.Start("x")()
	if b.Now() != 0 || b.Len() != 0 || b.Snapshot() != nil {
		t.Fatal("nil buffer is not inert")
	}
	var r *Registry
	r.EnableSpans(4)
	r.SpanStart("x")()
	if r.Spans() != nil {
		t.Fatal("nil registry has spans")
	}
}

func TestRegistrySpansDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if r.Spans() != nil {
		t.Fatal("spans enabled without EnableSpans")
	}
	r.SpanStart("ignored")()
	if r.Spans() != nil {
		t.Fatal("SpanStart enabled recording")
	}
}

func TestRegistryEnableSpansIdempotent(t *testing.T) {
	r := NewRegistry()
	r.EnableSpans(8)
	r.SpanStart("kept")()
	first := r.Spans()
	r.EnableSpans(8) // second enable must not drop recorded spans
	if r.Spans() != first {
		t.Fatal("re-enable replaced the buffer")
	}
	got := first.Snapshot()
	if len(got) != 1 || got[0].Name != "kept" {
		t.Fatalf("recorded span lost: %v", got)
	}
}

// TestSpanStartDisabledAllocs pins the disabled-path contract: hot
// paths call SpanStart unconditionally, so with spans off (or no
// registry at all) it must hand out the shared no-op without
// allocating.
func TestSpanStartDisabledAllocs(t *testing.T) {
	r := NewRegistry()
	if allocs := testing.AllocsPerRun(100, func() {
		r.SpanStart("hot")()
	}); allocs != 0 {
		t.Errorf("disabled SpanStart allocates %.1f objects/call; want 0", allocs)
	}
	var nilReg *Registry
	if allocs := testing.AllocsPerRun(100, func() {
		nilReg.SpanStart("hot")()
	}); allocs != 0 {
		t.Errorf("nil-registry SpanStart allocates %.1f objects/call; want 0", allocs)
	}
}
