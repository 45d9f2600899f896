package report

import (
	"strings"
	"testing"

	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

func ringSet(t *testing.T, nranks int) *trace.Set {
	t.Helper()
	prog, err := workloads.BuildByName("tokenring", workloads.Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: nranks, Seed: 1}}, prog)
	if err != nil {
		t.Fatal(err)
	}
	set, err := run.TraceSet()
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestTimelineRenders(t *testing.T) {
	var sb strings.Builder
	if err := Timeline(&sb, ringSet(t, 4), 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 4 rank rows + legend.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for rank := 1; rank <= 4; rank++ {
		if !strings.Contains(lines[rank], "|") {
			t.Fatalf("rank row %d malformed: %q", rank, lines[rank])
		}
	}
	// The ring has sends and receives.
	if !strings.Contains(out, "s") || !strings.Contains(out, "r") {
		t.Fatalf("missing send/recv glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Fatal("legend missing")
	}
}

func TestTimelineRowWidths(t *testing.T) {
	var sb strings.Builder
	if err := Timeline(&sb, ringSet(t, 3), 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "|") {
			continue
		}
		start := strings.Index(line, "|")
		end := strings.LastIndex(line, "|")
		if end-start-1 != 40 {
			t.Fatalf("row width %d, want 40: %q", end-start-1, line)
		}
	}
}

func TestTimelineDefaultsWidth(t *testing.T) {
	if err := Timeline(&strings.Builder{}, ringSet(t, 2), 0); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineEmptyTraceFails(t *testing.T) {
	set, err := trace.SetFromMem([]*trace.MemTrace{
		{Hdr: trace.Header{Rank: 0, NRanks: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Timeline(&strings.Builder{}, set, 40); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestGlyphs(t *testing.T) {
	for k, want := range map[trace.Kind]byte{
		trace.KindSend:      's',
		trace.KindRecv:      'r',
		trace.KindIsend:     'i',
		trace.KindIrecv:     'i',
		trace.KindWait:      'w',
		trace.KindWaitall:   'w',
		trace.KindBarrier:   'C',
		trace.KindAllreduce: 'C',
		trace.KindInit:      'm',
		trace.KindMarker:    'm',
	} {
		if got := glyph(k); got != want {
			t.Errorf("glyph(%s) = %c, want %c", k, got, want)
		}
	}
}
