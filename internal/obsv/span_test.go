package obsv

import "testing"

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

func TestSpanNilSafety(t *testing.T) {
	var b *SpanBuffer
	b.Record("x", 0, 1)
	if b.Now() != 0 || b.Len() != 0 || b.Snapshot() != nil {
		t.Fatal("nil buffer is not inert")
	}
	var r *Registry
	r.EnableSpans()
	r.Time("x").End()
	if r.Spans() != nil {
		t.Fatal("nil registry has spans")
	}
}

func TestRegistrySpansDisabledByDefault(t *testing.T) {
	r := NewRegistry()
	if r.Spans() != nil {
		t.Fatal("spans enabled without EnableSpans")
	}
	r.Time("ignored").End()
	if r.Spans() != nil {
		t.Fatal("Time enabled recording")
	}
}

func TestRegistryEnableSpansIdempotent(t *testing.T) {
	r := NewRegistry()
	r.EnableSpans()
	r.Time("kept").End()
	first := r.Spans()
	r.EnableSpans() // second enable must not drop recorded spans
	if r.Spans() != first {
		t.Fatal("re-enable replaced the buffer")
	}
	got := first.Snapshot()
	if len(got) != 1 || got[0].Name != "kept" {
		t.Fatalf("recorded span lost: %v", got)
	}
}

// TestTimeAllocs pins the disabled-path contract: boundaries call
// Time unconditionally, so with spans off (or no registry at all) a
// Time(..).End() pair must not allocate.
func TestTimeAllocs(t *testing.T) {
	r := NewRegistry()
	if allocs := testing.AllocsPerRun(100, func() {
		r.Time("hot").End()
	}); allocs != 0 {
		t.Errorf("Time with spans off allocates %.1f objects/call; want 0", allocs)
	}
	var nilReg *Registry
	if allocs := testing.AllocsPerRun(100, func() {
		nilReg.Time("hot").End()
	}); allocs != 0 {
		t.Errorf("nil-registry Time allocates %.1f objects/call; want 0", allocs)
	}
	r.EnableSpans()
	if allocs := testing.AllocsPerRun(100, func() {
		r.Time("hot").End()
	}); allocs > 1 {
		t.Errorf("Time with spans on allocates %.1f objects/call; want at most the one span", allocs)
	}
}
