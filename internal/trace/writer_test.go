package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"
)

func TestWriterFlushOnFull(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Rank: 0, NRanks: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(0)
	add := func() {
		t.Helper()
		rec := Record{Kind: KindBarrier, Begin: clock, End: clock + 10, Seq: clock/10 + 1,
			Peer: NoRank, Root: NoRank, CommSize: 1}
		clock += 10
		if err := w.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		add()
	}
	if w.Flushes() != 0 {
		t.Fatalf("flushed before buffer full: %d", w.Flushes())
	}
	add() // 4th record fills the buffer
	if w.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1", w.Flushes())
	}
	for i := 0; i < 5; i++ {
		add()
	}
	if w.Flushes() != 2 {
		t.Fatalf("flushes = %d, want 2", w.Flushes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 9 {
		t.Fatalf("records = %d, want 9", w.Records())
	}

	r, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) != 9 {
		t.Fatalf("read back %d records, want 9", len(m.Records))
	}
}

// TestWriterBuffersEncodedBytes pins what a writer holds between
// dumps: the encoded stream in the encoder's fixed-size output buffer,
// not capacity Record structs. A run opens one writer per rank with the
// default capacity of 4096 records, and a buffer of that many Records
// would cost about 300 KB per rank however few events the rank records.
func TestWriterBuffersEncodedBytes(t *testing.T) {
	const events = 500
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := NewWriter(io.Discard, Header{Rank: 0, NRanks: 2}, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for e := int64(0); e < events; e++ {
			rec := Record{Kind: KindSend, Begin: 10 * e, End: 10*e + 5, Peer: 1, Bytes: 64, Root: NoRank}
			if err := w.Record(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	t.Logf("writer of %d events allocated %d B", events, best)
	if best > 16<<10 {
		t.Fatalf("writer of %d events allocated %d B; want <= 16 KiB", events, best)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Rank: 0, NRanks: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Record(Record{Kind: KindInit, Begin: 0, End: 100, Peer: NoRank, Root: NoRank}); err != nil {
		t.Fatal(err)
	}
	err = w.Record(Record{Kind: KindBarrier, Begin: 50, End: 60, Seq: 1, Peer: NoRank, Root: NoRank, CommSize: 1})
	if err == nil {
		t.Fatal("overlapping record accepted")
	}
}

func TestWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{Rank: 0, NRanks: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(Record{Kind: KindInit, Peer: NoRank, Root: NoRank}); err == nil {
		t.Fatal("record after close accepted")
	}
}

func TestMemTraceReaderAndReset(t *testing.T) {
	m := &MemTrace{
		Hdr: Header{Rank: 0, NRanks: 1},
		Records: []Record{
			{Kind: KindInit, Begin: 0, End: 1, Peer: NoRank, Root: NoRank},
			{Kind: KindFinalize, Begin: 2, End: 3, Peer: NoRank, Root: NoRank},
		},
	}
	got, err := m.Batch()
	if err != nil || &got[0] != &m.Records[0] || !reflect.DeepEqual(got, m.Records) {
		t.Fatalf("got %v, %v; want the records themselves", got, err)
	}
	if got, err := m.Batch(); got != nil || !errors.Is(err, io.EOF) {
		t.Fatalf("after the records: %v %v", got, err)
	}
	m.Reset()
	if got, err := m.Batch(); err != nil || len(got) != 2 || got[0].Kind != KindInit {
		t.Fatalf("after reset: %v %v", got, err)
	}
}

// TestMemTraceValidatesOnce: Append rejects an invalid record and
// counts the valid ones, a hand-built trace is validated at its first
// Batch and hands out the records before an invalid one, then a
// *RecordError naming its index, and ReadAll and a Snapshot's sets
// carry the valid count, so no record is validated twice.
func TestMemTraceValidatesOnce(t *testing.T) {
	first := Record{Kind: KindInit, Begin: 0, End: 1, Peer: NoRank, Root: NoRank}
	fin := Record{Kind: KindFinalize, Begin: 2, End: 3, Peer: NoRank, Root: NoRank}
	bad := Record{Kind: KindFinalize, Begin: 5, End: 4, Peer: NoRank, Root: NoRank}

	var m MemTrace
	if err := m.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(bad); err == nil || len(m.Records) != 1 {
		t.Fatalf("Append of an invalid record: %v, %d records", err, len(m.Records))
	}
	if err := m.Append(fin); err != nil || m.valid != 2 {
		t.Fatalf("Append: %v, %d of %d records counted valid", err, m.valid, len(m.Records))
	}

	h := &MemTrace{Hdr: Header{Rank: 0, NRanks: 1}, Records: []Record{first, fin, bad, fin}}
	got, err := h.Batch()
	if err != nil || len(got) != 2 || &got[0] != &h.Records[0] {
		t.Fatalf("first batch: %d records, %v; want the 2 before the invalid one", len(got), err)
	}
	var re *RecordError
	for i := 0; i < 2; i++ {
		if got, err := h.Batch(); got != nil || !errors.As(err, &re) || re.Index != 2 ||
			re.Err.Error() != "trace: finalize record with End 4 < Begin 5" {
			t.Fatalf("call %d after the valid prefix: %v, %v; want record 2's error", i, got, err)
		}
	}
	if h.valid != 2 {
		t.Fatalf("valid prefix %d, want 2", h.valid)
	}

	all, err := ReadAll(&MemTrace{Hdr: Header{Rank: 0, NRanks: 1}, Records: []Record{first, fin}})
	if err != nil || all.valid != 2 {
		t.Fatalf("ReadAll: %v, valid prefix %d of 2", err, all.valid)
	}
	snap, err := SnapshotFromMem([]*MemTrace{{Hdr: Header{Rank: 0, NRanks: 1}, Records: []Record{first, bad}}})
	if err != nil {
		t.Fatal(err)
	}
	if r := snap.Set().Rank(0).(*MemTrace); r.valid != 1 {
		t.Fatalf("a Snapshot's set starts with %d records known valid, want 1", r.valid)
	}
}

func TestNewSetValidation(t *testing.T) {
	mk := func(rank, n int) *MemTrace {
		return &MemTrace{Hdr: Header{Rank: rank, NRanks: n}}
	}
	if _, err := NewSet(nil); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := NewSet([]Reader{mk(0, 2), mk(1, 2)}); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if _, err := NewSet([]Reader{mk(0, 3), mk(1, 3)}); err == nil {
		t.Fatal("wrong world size accepted")
	}
	if _, err := NewSet([]Reader{mk(0, 2), mk(0, 2)}); err == nil {
		t.Fatal("duplicate rank accepted")
	}
	set, err := NewSet([]Reader{mk(1, 2), mk(0, 2)}) // any order in, rank order out
	if err != nil {
		t.Fatal(err)
	}
	if set.NRanks() != 2 {
		t.Fatalf("NRanks = %d", set.NRanks())
	}
	if set.Rank(1).Header().Rank != 1 {
		t.Fatal("readers not indexed by rank")
	}
}

func TestFileRoundTripThroughDir(t *testing.T) {
	dir := t.TempDir()
	const nranks = 3
	for rank := 0; rank < nranks; rank++ {
		h := Header{Rank: rank, NRanks: nranks, Meta: map[string]string{"x": "y"}}
		w, closeFn, err := CreateFileWriter(dir, h, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 10; i++ {
			rec := Record{Kind: KindBarrier, Begin: i * 10, End: i*10 + 5, Seq: i + 1,
				Peer: NoRank, Root: NoRank, CommSize: 3}
			if err := w.Record(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := closeFn(); err != nil {
			t.Fatal(err)
		}
	}

	set, closeFn, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn() //nolint:errcheck
	if set.NRanks() != nranks {
		t.Fatalf("NRanks = %d", set.NRanks())
	}
	for rank := 0; rank < nranks; rank++ {
		m, err := ReadAll(set.Rank(rank))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Records) != 10 {
			t.Fatalf("rank %d: %d records", rank, len(m.Records))
		}
		if m.Hdr.Meta["x"] != "y" {
			t.Fatalf("rank %d: metadata lost", rank)
		}
	}
}

func TestOpenDirEmpty(t *testing.T) {
	if _, _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestOpenDirRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+FileName(0), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir); err == nil {
		t.Fatal("corrupt trace accepted")
	}
}

func TestSetFromMem(t *testing.T) {
	a := &MemTrace{Hdr: Header{Rank: 0, NRanks: 2},
		Records: []Record{{Kind: KindInit, Peer: NoRank, Root: NoRank}}}
	b := &MemTrace{Hdr: Header{Rank: 1, NRanks: 2}}
	// Exhaust a first; SetFromMem must reset it.
	if _, err := a.Batch(); err != nil {
		t.Fatal(err)
	}
	set, err := SetFromMem([]*MemTrace{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := set.Rank(0).Batch(); err != nil || r[0].Kind != KindInit {
		t.Fatalf("reset not applied: %v %v", r, err)
	}
}

func TestSetResetFileBacked(t *testing.T) {
	dir := t.TempDir()
	h := Header{Rank: 0, NRanks: 1}
	w, closeFn, err := CreateFileWriter(dir, h, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Record(Record{Kind: KindInit, Begin: 0, End: 1, Peer: NoRank, Root: NoRank}); err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	set, closeAll, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll() //nolint:errcheck
	if set.Reset() {
		t.Fatal("file-backed set claimed to be rewindable")
	}
}

func TestSetResetInMemory(t *testing.T) {
	m := &MemTrace{Hdr: Header{Rank: 0, NRanks: 1},
		Records: []Record{{Kind: KindInit, Peer: NoRank, Root: NoRank}}}
	set, err := SetFromMem([]*MemTrace{m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Rank(0).Batch(); err != nil {
		t.Fatal(err)
	}
	if !set.Reset() {
		t.Fatal("in-memory set not rewindable")
	}
	if r, err := set.Rank(0).Batch(); err != nil || r[0].Kind != KindInit {
		t.Fatalf("reset did not rewind: %v %v", r, err)
	}
}
