package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTextRoundTrip(t *testing.T) {
	hdr := Header{Rank: 2, NRanks: 8, ClockHz: 123,
		Meta: map[string]string{"workload": "tokenring", "seed": "42"}}
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteText(&buf, hdr, recs); err != nil {
		t.Fatal(err)
	}
	h2, r2, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Rank != hdr.Rank || h2.NRanks != hdr.NRanks || h2.ClockHz != hdr.ClockHz {
		t.Fatalf("header mismatch: %+v", h2)
	}
	if !reflect.DeepEqual(h2.Meta, hdr.Meta) {
		t.Fatalf("meta mismatch: %v", h2.Meta)
	}
	if !reflect.DeepEqual(r2, recs) {
		for i := range recs {
			if i < len(r2) && !reflect.DeepEqual(r2[i], recs[i]) {
				t.Fatalf("record %d: got %+v want %+v", i, r2[i], recs[i])
			}
		}
		t.Fatalf("record count: got %d want %d", len(r2), len(recs))
	}
}

func TestTextOutputReadable(t *testing.T) {
	var buf bytes.Buffer
	err := WriteText(&buf, Header{Rank: 0, NRanks: 2}, []Record{
		{Kind: KindSend, Begin: 10, End: 20, Peer: 1, Tag: 3, Bytes: 64, Root: NoRank},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"# mpgt-text 1", "header rank=0 nranks=2",
		"send begin=10 end=20 peer=1 tag=3 bytes=64"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
	// Absent fields omitted.
	if strings.Contains(out, "root=") || strings.Contains(out, "req=") {
		t.Errorf("zero fields not omitted:\n%s", out)
	}
}

func TestTextHandAuthored(t *testing.T) {
	src := `# mpgt-text 1
header rank=0 nranks=1

meta note=hand-written
init begin=0 end=10
marker begin=50 end=50 tag=7
finalize begin=100 end=100
`
	h, recs, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.Meta["note"] != "hand-written" {
		t.Fatalf("meta = %v", h.Meta)
	}
	if len(recs) != 3 || recs[1].Kind != KindMarker || recs[1].Tag != 7 {
		t.Fatalf("records = %v", recs)
	}
	// Defaults applied: peer/root = NoRank.
	if recs[0].Peer != NoRank || recs[0].Root != NoRank {
		t.Fatalf("defaults wrong: %+v", recs[0])
	}
}

func TestTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no magic":     "header rank=0 nranks=1\n",
		"no header":    "# mpgt-text 1\ninit begin=0 end=1\n",
		"bad kind":     "# mpgt-text 1\nheader rank=0 nranks=1\nfrobnicate begin=0 end=1\n",
		"bad field":    "# mpgt-text 1\nheader rank=0 nranks=1\ninit begin end=1\n",
		"bad number":   "# mpgt-text 1\nheader rank=0 nranks=1\ninit begin=x end=1\n",
		"bad record":   "# mpgt-text 1\nheader rank=0 nranks=1\nsend begin=0 end=1\n",
		"bad header":   "# mpgt-text 1\nheader rank=5 nranks=1\n",
		"bad meta":     "# mpgt-text 1\nheader rank=0 nranks=1\nmeta keyonly\n",
		"invalid time": "# mpgt-text 1\nheader rank=0 nranks=1\ninit begin=10 end=5\n",
		"wrapped span": "# mpgt-text 1\nheader rank=0 nranks=1\ninit begin=-9223372036854775808 end=0\n",
	}
	for name, src := range cases {
		if _, _, err := ReadText(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTextLongLine pins the reader's line budget: a meta value well
// past bufio.Scanner's default (and past the 1 MiB cap the reader
// used to set) must survive a round trip rather than fail with
// bufio.ErrTooLong. Provenance blobs in tool-generated traces are the
// real-world source of such lines.
func TestTextLongLine(t *testing.T) {
	long := strings.Repeat("x", 3<<20)
	hdr := Header{Rank: 0, NRanks: 2, Meta: map[string]string{"provenance": long}}
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteText(&buf, hdr, recs); err != nil {
		t.Fatal(err)
	}
	h2, r2, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("long meta line rejected: %v", err)
	}
	if h2.Meta["provenance"] != long {
		t.Fatalf("long meta value truncated: got %d bytes, want %d",
			len(h2.Meta["provenance"]), len(long))
	}
	if !reflect.DeepEqual(r2, recs) {
		t.Fatal("records after the long line did not round-trip")
	}
}

func TestTextRejectsNonMonotone(t *testing.T) {
	// A rank's events form a serial history; an event beginning before
	// its predecessor ended is a tracer bug the codec must surface, not
	// normalize away.
	src := `# mpgt-text 1
header rank=0 nranks=2
send begin=100 end=200 peer=1 bytes=8
send begin=150 end=250 peer=1 bytes=8
`
	if _, _, err := ReadText(strings.NewReader(src)); err == nil {
		t.Fatal("non-monotone trace accepted")
	} else if !strings.Contains(err.Error(), "non-monotone") {
		t.Fatalf("wrong error: %v", err)
	}

	var buf bytes.Buffer
	err := WriteText(&buf, Header{Rank: 0, NRanks: 2}, []Record{
		{Kind: KindSend, Begin: 100, End: 200, Peer: 1, Bytes: 8, Root: NoRank},
		{Kind: KindSend, Begin: 150, End: 250, Peer: 1, Bytes: 8, Root: NoRank},
	})
	if err == nil {
		t.Fatal("writer emitted a non-monotone trace")
	}

	// begin == previous end is a legal back-to-back schedule.
	touching := `# mpgt-text 1
header rank=0 nranks=2
send begin=100 end=200 peer=1 bytes=8
send begin=200 end=250 peer=1 bytes=8
`
	if _, _, err := ReadText(strings.NewReader(touching)); err != nil {
		t.Fatalf("touching events rejected: %v", err)
	}
}

func TestTextRejectsUnrepresentableMeta(t *testing.T) {
	var buf bytes.Buffer
	err := WriteText(&buf, Header{Rank: 0, NRanks: 1,
		Meta: map[string]string{"bad key": "v"}}, nil)
	if err == nil {
		t.Fatal("space in meta key accepted")
	}
}

func TestDumpText(t *testing.T) {
	m := &MemTrace{
		Hdr: Header{Rank: 0, NRanks: 1},
		Records: []Record{
			{Kind: KindInit, Begin: 0, End: 1, Peer: NoRank, Root: NoRank},
		},
	}
	var buf bytes.Buffer
	if err := DumpText(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "init begin=0 end=1") {
		t.Fatalf("dump = %q", buf.String())
	}
}

func TestTextBinaryEquivalence(t *testing.T) {
	// A trace written via text, read back, and encoded via the binary
	// codec must survive a binary round trip identically.
	hdr := Header{Rank: 1, NRanks: 4}
	recs := sampleRecords()
	var text bytes.Buffer
	if err := WriteText(&text, hdr, recs); err != nil {
		t.Fatal(err)
	}
	h2, r2, err := ReadText(&text)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	enc, err := NewEncoder(&bin, h2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range r2 {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&bin)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Records, recs) {
		t.Fatalf("records: %+v vs %+v", m.Records, recs)
	}
}
