package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// edgeRecords are boundary-condition fixtures for the seed corpora:
// collectives at the maximum sequence number, zero-byte messages, and
// extreme-but-legal timestamps.
func edgeRecords() []Record {
	return []Record{
		{Kind: KindInit, Begin: 0, End: 0, Peer: NoRank, Root: NoRank},
		{Kind: KindSend, Begin: 1, End: 2, Peer: 1, Tag: 0, Bytes: 0, Root: NoRank},
		{Kind: KindRecv, Begin: 2, End: 3, Peer: 1, Tag: 0, Bytes: 0, Root: NoRank},
		{Kind: KindAllreduce, Begin: 4, End: 5, Peer: NoRank, Seq: math.MaxInt64,
			Bytes: 0, Root: NoRank, CommSize: 2},
		{Kind: KindBcast, Begin: 6, End: 7, Peer: NoRank, Seq: math.MaxInt64,
			Bytes: 1, Root: 0, Comm: math.MaxInt32, CommSize: 2},
		{Kind: KindFinalize, Begin: math.MaxInt64, End: math.MaxInt64,
			Peer: NoRank, Root: NoRank},
	}
}

// malformedSeeds are text traces modeled on the hand-built fixtures
// the structural linter (internal/verify) checks: the codec rejects
// the per-rank defects (non-monotone clock, end before begin) at parse
// time; the cross-rank ones (unmatched send, dangling wait) are valid
// text that only the set-level linter can flag, and must round-trip.
func malformedSeeds() []string {
	return []string{
		// Overlapping events on one rank: rejected at parse time.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=100 end=200 peer=1 bytes=8\nsend begin=150 end=250 peer=1 bytes=8\n",
		// Equal boundary: begin == previous end is legal.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=100 end=200 peer=1 bytes=8\nsend begin=200 end=250 peer=1 bytes=8\n",
		// Unmatched send and dangling wait: parse fine, lint dirty.
		"# mpgt-text 1\nheader rank=0 nranks=2\nsend begin=0 end=10 peer=1 bytes=4\n",
		"# mpgt-text 1\nheader rank=0 nranks=1\nwait begin=0 end=10 req=7\n",
		// Backwards clock within one record.
		"# mpgt-text 1\nheader rank=0 nranks=1\ninit begin=10 end=5\n",
	}
}

// encodeAll renders records through the binary codec.
func encodeAll(f *testing.F, hdr Header, recs []Record) []byte {
	f.Helper()
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf, hdr)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// refDecoder is the byte-at-a-time decoder the batch Decoder replaced,
// kept as the oracle FuzzDecoder holds the Decoder to: it reads every
// varint through binary.ReadUvarint on a bufio.Reader and returns one
// record per call.
type refDecoder struct {
	r      *bufio.Reader
	header Header
	done   bool
	prev   int64
}

func newRefDecoder(r io.Reader) (*refDecoder, error) {
	d := &refDecoder{r: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, headerErr("version", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	rank, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, headerErr("rank", err)
	}
	nranks, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, headerErr("nranks", err)
	}
	clockhz, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, headerErr("clockhz", err)
	}
	nmeta, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, headerErr("nmeta", err)
	}
	if nmeta > 1<<20 {
		return nil, fmt.Errorf("trace: implausible metadata count %d", nmeta)
	}
	// The map grows as entries arrive: nmeta is only what the input
	// declares, so it must not size an allocation up front.
	var meta map[string]string
	for i := uint64(0); i < nmeta; i++ {
		k, err := d.readString()
		var v string
		if err == nil {
			v, err = d.readString()
		}
		if err != nil {
			return nil, headerErr(fmt.Sprintf("metadata entry %d of %d", i, nmeta), err)
		}
		if meta == nil {
			meta = map[string]string{}
		}
		meta[k] = v
	}
	d.header = Header{Rank: int(rank), NRanks: int(nranks), ClockHz: int64(clockhz), Meta: meta}
	if err := d.header.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *refDecoder) readString() (string, error) {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	// Like the metadata count, n is only declared: grow the builder as
	// bytes arrive rather than by n up front.
	var sb strings.Builder
	sb.Grow(int(min(n, 4096)))
	if _, err := io.CopyN(&sb, d.r, int64(n)); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func (d *refDecoder) decode() (Record, error) {
	if d.done {
		return Record{}, io.EOF
	}
	kind, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, fmt.Errorf("trace: truncated stream (missing terminator): %w", io.ErrUnexpectedEOF)
		}
		return Record{}, err
	}
	if kind == 0 {
		d.done = true
		return Record{}, io.EOF
	}
	var r Record
	r.Kind = Kind(kind)
	dbegin, err := binary.ReadVarint(d.r)
	if err != nil {
		return Record{}, refFieldErr(err)
	}
	r.Begin = d.prev + dbegin
	d.prev = r.Begin
	dur, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, refFieldErr(err)
	}
	r.End = r.Begin + int64(dur)
	flags, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, refFieldErr(err)
	}
	r.Peer, r.Root = NoRank, NoRank
	if flags&flagPeer != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Peer = int32(v)
	}
	if flags&flagTag != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Tag = int32(v)
	}
	if flags&flagBytes != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Bytes = int64(v)
	}
	if flags&flagReq != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Req = v
	}
	if flags&flagComm != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Comm = int32(v)
	}
	if flags&flagSeq != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Seq = int64(v)
	}
	if flags&flagRoot != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.Root = int32(v)
	}
	if flags&flagCommSize != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, refFieldErr(err)
		}
		r.CommSize = int32(v)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// refFieldErr is the error for a record field after the kind that
// binary.ReadUvarint or binary.ReadVarint failed to read: a stream that
// ends before the field's first byte is cut inside the record, so its
// bare io.EOF becomes io.ErrUnexpectedEOF.
func refFieldErr(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated record: %w", err)
}

// batchBoundarySeeds are streams whose record at index 15, 16 or 17
// (the last of the decoder's first batch, and the first and second of
// its next) is cut short or invalid.
func batchBoundarySeeds(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, k := range []int{15, 16, 17} {
		var buf bytes.Buffer
		enc, err := NewEncoder(&buf, Header{Rank: 0, NRanks: 2})
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if err := enc.Encode(Record{Kind: KindSend, Begin: int64(10 * i), End: int64(10*i + 5),
				Peer: 1, Tag: 42, Bytes: 8192, Root: NoRank}); err != nil {
				f.Fatal(err)
			}
		}
		if err := enc.w.Flush(); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		// A send cut after its kind, begin delta and duration; one cut
		// inside its two-byte size; and one without a peer, then the
		// terminator.
		seeds = append(seeds,
			append(slices.Clip(valid), byte(KindSend), 20, 5),
			append(slices.Clip(valid), byte(KindSend), 20, 5, flagPeer|flagTag|flagBytes, 2, 84, 0x80),
			append(slices.Clip(valid), byte(KindSend), 20, 5, 0, 0))
	}
	return seeds
}

// FuzzDecoder feeds arbitrary bytes to the binary decoder and holds it
// to the reference decoder: the same header or header error, then the
// same records up to the same error, with the same text. Run with
// `go test -fuzz=FuzzDecoder ./internal/trace` for a real campaign;
// the seed corpus below runs on every `go test`.
func FuzzDecoder(f *testing.F) {
	// Seeds: a valid stream, a truncated stream, pure garbage.
	var valid bytes.Buffer
	enc, err := NewEncoder(&valid, Header{Rank: 1, NRanks: 4,
		Meta: map[string]string{"k": "v"}})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := enc.Encode(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte("MPGT"))
	f.Add([]byte("garbage that is not a trace at all"))
	f.Add([]byte{})
	// Boundary seeds: max-seq collectives and zero-byte messages, whole
	// and with the final record truncated mid-stream.
	edge := encodeAll(f, Header{Rank: 0, NRanks: 2}, edgeRecords())
	f.Add(edge)
	f.Add(edge[:len(edge)-1])
	f.Add(edge[:len(edge)-3])
	for _, s := range batchBoundarySeeds(f) {
		f.Add(s)
	}
	// A stream that refills the read buffer several times, cut inside
	// its last record.
	var long []Record
	for i := 0; i < 100; i++ {
		for _, r := range sampleRecords() {
			r.Begin, r.End = r.Begin+int64(i)*2000, r.End+int64(i)*2000
			long = append(long, r)
		}
	}
	longStream := encodeAll(f, Header{Rank: 1, NRanks: 4}, long)
	f.Add(longStream[:len(longStream)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := newRefDecoder(bytes.NewReader(data))
		var want []Record
		if refErr == nil {
			for {
				r, err := ref.decode()
				if err != nil {
					refErr = err
					break
				}
				want = append(want, r)
			}
		}
		// The decoder must agree however its source splits the bytes:
		// whole, and one byte per read, which refills mid-record.
		for _, src := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
			dec, err := NewDecoder(src)
			if ref == nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("header error %v, reference %v", err, refErr)
				}
				continue // rejected at the header, as the reference does
			}
			if !reflect.DeepEqual(dec.Header(), ref.header) {
				t.Fatalf("header %+v, reference %+v", dec.Header(), ref.header)
			}
			// Every record consumes at least one byte, so a decoder that
			// yields more records than there are bytes fails to terminate.
			var got []Record
			for {
				var recs []Record
				if recs, err = dec.Batch(); err != nil {
					break
				}
				if len(recs) == 0 || len(recs) > decodeBatch {
					t.Fatalf("batch of %d records", len(recs))
				}
				if got = append(got, recs...); len(got) > len(data) {
					t.Fatal("decoder failed to terminate on fuzzed input")
				}
			}
			if recs, again := dec.Batch(); recs != nil || again != err {
				t.Fatalf("after error %v, Batch returned %d records and %v", err, len(recs), again)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records differ from the reference:\n%+v\n%+v", got, want)
			}
			if err.Error() != refErr.Error() || errors.Is(err, io.EOF) != errors.Is(refErr, io.EOF) ||
				errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(refErr, io.ErrUnexpectedEOF) {
				t.Fatalf("error %q after %d records, reference %q", err, len(got), refErr)
			}
		}
	})
}

// FuzzTextReader does the same for the text codec.
func FuzzTextReader(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteText(&valid, Header{Rank: 0, NRanks: 2}, sampleRecords()); err != nil {
		f.Fatal(err)
	}
	var edge bytes.Buffer
	if err := WriteText(&edge, Header{Rank: 1, NRanks: 2}, edgeRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(edge.String())
	f.Add(edge.String()[:edge.Len()-4]) // truncated final record
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\n")
	// A line past the old 1 MiB scanner cap: the reader must parse it,
	// not error with bufio.ErrTooLong (see TestTextLongLine).
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\nmeta blob=" +
		strings.Repeat("y", (1<<20)+512) + "\n")
	f.Add("nonsense")
	f.Add("")
	for _, s := range malformedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, _, _ = ReadText(bytes.NewReader([]byte(s)))
	})
}

// FuzzTextRoundTrip checks the codec identity decode(encode(x)) == x:
// any input the text reader accepts must re-encode to a form that
// parses back to the same header and records.
func FuzzTextRoundTrip(f *testing.F) {
	for _, recs := range [][]Record{sampleRecords(), edgeRecords()} {
		var buf bytes.Buffer
		if err := WriteText(&buf, Header{Rank: 0, NRanks: 2,
			Meta: map[string]string{"workload": "tokenring"}}, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("# mpgt-text 1\nheader rank=0 nranks=1\nmeta a=b=c\n")
	for _, s := range malformedSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		hdr, recs, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return // rejected input: fine
		}
		// Anything the reader accepts is a monotone serial history, so
		// the writer (which enforces the same invariant) must take it.
		var out bytes.Buffer
		if err := WriteText(&out, hdr, recs); err != nil {
			// The reader is more permissive than the writer in exactly
			// one place: metadata keys with spaces/'=' parse but are not
			// representable. Anything else must re-encode.
			for k := range hdr.Meta {
				if len(k) == 0 || bytes.ContainsAny([]byte(k), " =") {
					return
				}
			}
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		hdr2, recs2, err := ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(hdr, hdr2) {
			t.Fatalf("header round-trip mismatch:\n%+v\n%+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("records round-trip mismatch:\n%+v\n%+v", recs, recs2)
		}
	})
}
