package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
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
	for i, want := range recs {
		r, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want)
		}
	}
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	// Decoding again keeps returning EOF.
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
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
	if _, err := dec.Decode(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF on empty stream, got %v", err)
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
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !errors.Is(err, io.EOF) {
				t.Fatalf("err = %v, want a wrapped EOF containing %q", err, tc.wantErr)
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
	var lastErr error
	for {
		_, err := dec.Decode()
		if err != nil {
			lastErr = err
			break
		}
	}
	if errors.Is(lastErr, io.EOF) && !errors.Is(lastErr, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream ended with clean EOF")
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
		for _, want := range recs {
			got, err := dec.Decode()
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		_, err = dec.Decode()
		return errors.Is(err, io.EOF)
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
