package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"mpgraph/internal/dist"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindInit, Begin: 0, End: 100, Peer: NoRank, Root: NoRank},
		{Kind: KindSend, Begin: 200, End: 350, Peer: 3, Tag: 42, Bytes: 8192, Root: NoRank},
		{Kind: KindIsend, Begin: 400, End: 410, Peer: 1, Tag: 7, Bytes: 64, Req: 1, Root: NoRank},
		{Kind: KindIrecv, Begin: 420, End: 425, Peer: 1, Tag: 7, Bytes: 64, Req: 2, Root: NoRank},
		{Kind: KindWait, Begin: 500, End: 620, Peer: NoRank, Req: 1, Root: NoRank},
		{Kind: KindWaitall, Begin: 620, End: 700, Peer: NoRank, Req: 2, Root: NoRank},
		{Kind: KindBarrier, Begin: 800, End: 900, Peer: NoRank, Seq: 1, Comm: 0, Root: NoRank, CommSize: 8},
		{Kind: KindAllreduce, Begin: 1000, End: 1200, Peer: NoRank, Seq: 2, Bytes: 8, Root: NoRank, CommSize: 8},
		{Kind: KindReduce, Begin: 1300, End: 1400, Peer: NoRank, Seq: 3, Bytes: 8, Root: 0, CommSize: 8},
		{Kind: KindBcast, Begin: 1500, End: 1600, Peer: NoRank, Seq: 4, Bytes: 1024, Root: 2, Comm: 1, CommSize: 4},
		{Kind: KindMarker, Begin: 1700, End: 1700, Peer: NoRank, Tag: 5, Root: NoRank},
		{Kind: KindFinalize, Begin: 1800, End: 1850, Peer: NoRank, Root: NoRank},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	hdr := Header{
		Rank: 2, NRanks: 8, ClockHz: 2_000_000_000,
		Meta: map[string]string{"workload": "tokenring", "seed": "42"},
	}
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatalf("encode %v: %v", r, err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.Header()
	if got.Rank != hdr.Rank || got.NRanks != hdr.NRanks || got.ClockHz != hdr.ClockHz {
		t.Fatalf("header mismatch: %+v vs %+v", got, hdr)
	}
	if !reflect.DeepEqual(got.Meta, hdr.Meta) {
		t.Fatalf("meta mismatch: %v vs %v", got.Meta, hdr.Meta)
	}
	m, err := ReadAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Records, recs) {
		t.Fatalf("records: got %+v, want %+v", m.Records, recs)
	}
	// Decoding again keeps returning EOF.
	if _, err := dec.Batch(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected repeated EOF, got %v", err)
	}
}

func TestCodecEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := dec.Batch(); len(recs) != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF on empty stream, got %v, %v", recs, err)
	}
}

func TestDecoderRejectsBadMagic(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("NOPE....."))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestDecoderRejectsShortInput(t *testing.T) {
	if _, err := NewDecoder(bytes.NewReader([]byte("MP"))); err == nil {
		t.Fatal("short input accepted")
	}
}

// TestDecoderDeclaredSizesDoNotSizeAllocations feeds headers that
// declare a large count and then end: 2^20 metadata entries (an
// 11-byte input), and one entry whose key declares 2^24 bytes. The
// decoder must fail on the missing entry, naming it, without
// allocating in proportion to what the input declared.
func TestDecoderDeclaredSizesDoNotSizeAllocations(t *testing.T) {
	header := func(fields ...uint64) []byte {
		hdr := []byte(magic)
		for _, v := range fields {
			hdr = binary.AppendUvarint(hdr, v)
		}
		return hdr
	}
	for _, tc := range []struct {
		name    string
		input   []byte
		wantErr string
	}{
		// version, rank, nranks, clock, nmeta
		{"metadata count", header(formatVersion, 0, 1, 1, 1<<20), "reading metadata entry 0 of 1048576"},
		// ... then one key length
		{"string length", header(formatVersion, 0, 1, 1, 1, 1<<24), "reading metadata entry 0 of 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want a wrapped io.ErrUnexpectedEOF containing %q", err, tc.wantErr)
			}
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, _ = NewDecoder(bytes.NewReader(tc.input))
				}
			})
			if got := res.AllocedBytesPerOp(); got >= 64<<10 {
				t.Fatalf("decoding the %d-byte header allocates %d B, want < 64 KiB", len(tc.input), got)
			}
		})
	}
}

func TestDecoderDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop off the tail (terminator plus part of the last record).
	data := buf.Bytes()[:buf.Len()-4]
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dec); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream ended with %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
}

// TestDecoderTruncatedAtEveryOffset cuts a stream at every byte: inside
// its header, between records, and after a record's kind before or
// inside any later field. Each cut must fail with a wrapped
// io.ErrUnexpectedEOF, never read as a clean end, after yielding only
// the records that precede it whole; a cut inside the header must name
// the field it cut. Only the empty stream, which holds no trace at
// all, ends with a clean io.EOF.
func TestDecoderTruncatedAtEveryOffset(t *testing.T) {
	encode := func(recs []Record) []byte {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 4, Meta: map[string]string{"k": "v"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := sampleRecords()
	data := encode(want)
	header := len(encode(nil)) - 1 // all but the terminator
	for cut := 0; cut < len(data); cut++ {
		for _, oneByte := range []bool{false, true} {
			var src io.Reader = bytes.NewReader(data[:cut])
			if oneByte {
				src = iotest.OneByteReader(src)
			}
			dec, err := NewDecoder(src)
			if (err != nil) != (cut < header) {
				t.Fatalf("cut at %d of %d, header of %d: header error %v", cut, len(data), header, err)
			}
			if err != nil && !strings.HasPrefix(err.Error(), "trace: reading ") {
				t.Errorf("cut at %d of %d: header error %q does not name the field it cut", cut, len(data), err)
			}
			var got []Record
			for err == nil {
				var recs []Record
				recs, err = dec.Batch()
				got = append(got, recs...)
			}
			wantErr := io.ErrUnexpectedEOF
			if cut == 0 {
				wantErr = io.EOF
			}
			if !errors.Is(err, wantErr) {
				t.Errorf("cut at %d of %d (one byte per read: %v): %d records, then %v; want a wrapped %v",
					cut, len(data), oneByte, len(got), err, wantErr)
			}
			if !slices.Equal(got, want[:len(got)]) {
				t.Errorf("cut at %d of %d: records %v are not a prefix of the stream's", cut, len(data), got)
			}
		}
	}
	dec, err := NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := ReadAll(dec); err != nil || !reflect.DeepEqual(m.Records, want) {
		t.Fatalf("whole stream: %v, %v", m, err)
	}
}

func TestEncoderRejectsInvalidRecord(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Record{Kind: KindSend, Peer: NoRank, Root: NoRank}); err == nil {
		t.Fatal("invalid record encoded without error")
	}
}

func TestEncoderRejectsBadHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewEncoder(&buf, Header{Rank: 5, NRanks: 2}); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestEncodeAfterCloseFails(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(sampleRecords()[0]); err == nil {
		t.Fatal("encode after close succeeded")
	}
}

// TestCodecQuickRoundTrip round-trips randomized-but-valid record
// sequences through the codec.
func TestCodecQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := dist.NewRNG(seed)
		count := int(n%50) + 1
		recs := make([]Record, 0, count)
		clock := int64(0)
		var req uint64
		var seq int64
		for i := 0; i < count; i++ {
			clock += int64(r.Intn(1000))
			dur := int64(r.Intn(500))
			var rec Record
			switch r.Intn(5) {
			case 0:
				rec = Record{Kind: KindSend, Peer: int32(r.Intn(16)), Tag: int32(r.Intn(100)),
					Bytes: int64(r.Intn(1 << 20)), Root: NoRank}
			case 1:
				rec = Record{Kind: KindRecv, Peer: int32(r.Intn(16)), Tag: int32(r.Intn(100)),
					Bytes: int64(r.Intn(1 << 20)), Root: NoRank}
			case 2:
				req++
				rec = Record{Kind: KindIsend, Peer: int32(r.Intn(16)), Req: req, Root: NoRank}
			case 3:
				seq++
				rec = Record{Kind: KindAllreduce, Seq: seq, Bytes: 8, Peer: NoRank, Root: NoRank, CommSize: 4}
			case 4:
				rec = Record{Kind: KindMarker, Tag: int32(r.Intn(10)), Peer: NoRank, Root: NoRank}
				dur = 0
			}
			rec.Begin = clock
			rec.End = clock + dur
			clock = rec.End
			recs = append(recs, rec)
		}

		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
		if err != nil {
			return false
		}
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				return false
			}
		}
		if err := enc.Close(); err != nil {
			return false
		}
		dec, err := NewDecoder(&buf)
		if err != nil {
			return false
		}
		m, err := ReadAll(dec)
		return err == nil && reflect.DeepEqual(m.Records, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCompactness(t *testing.T) {
	// Delta encoding should keep the per-record cost small for typical
	// traces (monotone timestamps with modest gaps).
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := int64(1 << 40) // large absolute times
	const n = 10000
	for i := 0; i < n; i++ {
		rec := Record{Kind: KindSend, Begin: clock, End: clock + 100, Peer: 1, Bytes: 64, Root: NoRank}
		clock += 250
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / n
	if perRecord > 12 {
		t.Fatalf("codec uses %.1f bytes/record, want <= 12", perRecord)
	}
}

// TestDecoderBatchAllocs pins the memory of the batch read path: a
// decoder is one allocation of at most 4 KiB, the size of the buffer
// bufio.Reader allocated alone; draining an opened decoder allocates
// nothing, however many times it refills its buffer; and a MemTrace
// hands out its records without allocating.
func TestDecoderBatchAllocs(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var clock int64
	for i := 0; i < 100; i++ {
		for _, r := range sampleRecords() {
			r.Begin, r.End = clock, clock+r.Duration()
			clock = r.End + 1000
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 3*readBufLen {
		t.Fatalf("a %d-byte stream does not refill the buffer several times", len(data))
	}

	const runs = 20
	src := bytes.NewReader(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		src.Reset(data)
		if _, err := NewDecoder(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != runs || b > runs*4096 {
		t.Errorf("NewDecoder allocates %d objects of %d B, want one of at most 4096 B", n/runs, b/runs)
	}

	decs := make([]*Decoder, runs+1) // AllocsPerRun makes one warm-up run
	for i := range decs {
		if decs[i], err = NewDecoder(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() {
		d := decs[next]
		next++
		n := 0
		for {
			b, err := d.Batch()
			if err != nil {
				if err != io.EOF || n != len(recs) {
					t.Fatalf("drained %d of %d records, then %v", n, len(recs), err)
				}
				return
			}
			n += len(b)
		}
	}); a != 0 {
		t.Errorf("draining an opened decoder allocates %.1f objects, want 0", a)
	}

	m := &MemTrace{Hdr: Header{Rank: 0, NRanks: 1}, Records: recs}
	if a := testing.AllocsPerRun(100, func() {
		m.Reset()
		if b, err := m.Batch(); err != nil || len(b) != len(recs) {
			t.Fatalf("MemTrace batch of %d records, %v", len(b), err)
		}
	}); a != 0 {
		t.Errorf("a MemTrace batch allocates %.1f objects, want 0", a)
	}
}
