package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(3)
	c.Inc()
	if got := r.Counter("events").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("window")
	g.Set(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge after SetMax(3) = %g, want 5", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after SetMax(9) = %g, want 9", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").SetMax(1)
	if d := r.Time("x").End(); d != 0 {
		t.Fatalf("nil registry Time measured %v", d)
	}
	if v := r.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value %d", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Timers) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestTimerAccumulates(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("phase")
	tm.Observe(3 * time.Millisecond)
	tm.Observe(2 * time.Millisecond)
	if got := tm.Total(); got != 5*time.Millisecond {
		t.Fatalf("total = %v, want 5ms", got)
	}
	r.Time("phase").End()
	snap := r.Snapshot().Timers["phase"]
	if snap.Count != 3 {
		t.Fatalf("timer count = %d, want 3", snap.Count)
	}
	if snap.TotalMS < 5 {
		t.Fatalf("timer total %gms, want >= 5ms", snap.TotalMS)
	}
	if ms := r.Snapshot().PhaseMS(); ms["phase"] != snap.TotalMS {
		t.Fatalf("PhaseMS = %v", ms)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").SetMax(float64(i))
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 8000 {
		t.Fatalf("counter = %d, want 8000", s.Counters["n"])
	}
	if s.Gauges["g"] != 999 {
		t.Fatalf("gauge = %g, want 999", s.Gauges["g"])
	}
	if s.Timers["t"].Count != 8000 {
		t.Fatalf("timer count = %d, want 8000", s.Timers["t"].Count)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(42)
	r.Gauge("window_high_water").Set(7)
	r.Timer("analyze").Observe(1500 * time.Microsecond)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, buf.String())
	}
	if back.Counters["events_total"] != 42 {
		t.Fatalf("round-tripped counter = %d", back.Counters["events_total"])
	}
	if back.Timers["analyze"].TotalMS <= 0 {
		t.Fatalf("round-tripped timer = %+v", back.Timers["analyze"])
	}
}

func TestProgressReporter(t *testing.T) {
	var buf lockedBuffer
	p := NewProgress(&buf, "points", 4, time.Hour) // ticker never fires
	p.Add(1)
	p.Add(3)
	p.Done()
	p.Done() // idempotent
	out := buf.String()
	if !strings.Contains(out, "points 4/4 (100%)") {
		t.Fatalf("final line missing: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final line not newline-terminated: %q", out)
	}
	var nilP *Progress
	nilP.Add(1)
	nilP.Done()
}

func TestRenderProgress(t *testing.T) {
	line := renderProgress("sweep", 3, 12, 3*time.Second)
	for _, want := range []string{"sweep 3/12", "(25%)", "elapsed 3s", "eta 9s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	if got := renderProgress("x", 0, 0, time.Second); !strings.Contains(got, "0/0 (0%)") {
		t.Fatalf("zero-total line = %q", got)
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for the reporter test.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
