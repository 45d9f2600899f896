package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Binary stream format (version 1):
//
//	magic   "MPGT"          4 bytes
//	version uvarint         currently 1
//	rank    uvarint
//	nranks  uvarint
//	clockhz uvarint
//	nmeta   uvarint
//	nmeta × (key uvarint-len bytes, value uvarint-len bytes), sorted by key
//	records: each record is
//	    kind   uvarint (non-zero)
//	    dbegin varint  (begin delta vs previous record's begin; first is absolute)
//	    dur    uvarint (end - begin)
//	    flags  uvarint bitset of optional fields present
//	    ... optional fields in flag order, each varint/uvarint
//	terminator: kind value 0
//
// Delta-encoding the begin timestamps keeps long traces compact (most
// inter-event gaps are small relative to absolute cycle counts).

const (
	magic         = "MPGT"
	formatVersion = 1
)

// Flag bits for optional record fields.
const (
	flagPeer = 1 << iota
	flagTag
	flagBytes
	flagReq
	flagComm
	flagSeq
	flagRoot
	flagCommSize
)

// ErrBadMagic is returned when a stream does not begin with the trace
// magic bytes.
var ErrBadMagic = errors.New("trace: bad magic (not a trace stream)")

// Encoder writes a trace stream: one header followed by records in
// recording order. Close writes the stream terminator.
type Encoder struct {
	w         *bufio.Writer
	prevBegin int64
	started   bool
	closed    bool
	buf       [binary.MaxVarintLen64]byte
}

// NewEncoder creates an encoder and immediately writes the header.
func NewEncoder(w io.Writer, h Header) (*Encoder, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	e := &Encoder{w: bufio.NewWriter(w)}
	if _, err := e.w.WriteString(magic); err != nil {
		return nil, err
	}
	e.putUvarint(formatVersion)
	e.putUvarint(uint64(h.Rank))
	e.putUvarint(uint64(h.NRanks))
	e.putUvarint(uint64(h.ClockHz))
	keys := make([]string, 0, len(h.Meta))
	for k := range h.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.putUvarint(uint64(len(keys)))
	for _, k := range keys {
		e.putString(k)
		e.putString(h.Meta[k])
	}
	e.started = true
	return e, nil
}

func (e *Encoder) putUvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.w.Write(e.buf[:n]) //nolint:errcheck // bufio defers errors to Flush
}

func (e *Encoder) putVarint(v int64) {
	n := binary.PutVarint(e.buf[:], v)
	e.w.Write(e.buf[:n]) //nolint:errcheck
}

func (e *Encoder) putString(s string) {
	e.putUvarint(uint64(len(s)))
	e.w.WriteString(s) //nolint:errcheck
}

// Encode appends one record to the stream.
func (e *Encoder) Encode(r Record) error {
	if e.closed {
		return errors.New("trace: encode on closed encoder")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	e.putUvarint(uint64(r.Kind))
	e.putVarint(r.Begin - e.prevBegin)
	e.prevBegin = r.Begin
	e.putUvarint(uint64(r.Duration()))
	var flags uint64
	if r.Peer != NoRank && r.Peer != 0 || r.Peer == 0 && r.Kind.IsPointToPoint() {
		flags |= flagPeer
	}
	if r.Tag != 0 {
		flags |= flagTag
	}
	if r.Bytes != 0 {
		flags |= flagBytes
	}
	if r.Req != 0 {
		flags |= flagReq
	}
	if r.Comm != 0 {
		flags |= flagComm
	}
	if r.Seq != 0 {
		flags |= flagSeq
	}
	if r.Root != NoRank && (r.Root != 0 || r.Kind.IsRooted()) {
		flags |= flagRoot
	}
	if r.CommSize != 0 {
		flags |= flagCommSize
	}
	e.putUvarint(flags)
	if flags&flagPeer != 0 {
		e.putVarint(int64(r.Peer))
	}
	if flags&flagTag != 0 {
		e.putVarint(int64(r.Tag))
	}
	if flags&flagBytes != 0 {
		e.putUvarint(uint64(r.Bytes))
	}
	if flags&flagReq != 0 {
		e.putUvarint(r.Req)
	}
	if flags&flagComm != 0 {
		e.putVarint(int64(r.Comm))
	}
	if flags&flagSeq != 0 {
		e.putUvarint(uint64(r.Seq))
	}
	if flags&flagRoot != 0 {
		e.putVarint(int64(r.Root))
	}
	if flags&flagCommSize != 0 {
		e.putUvarint(uint64(r.CommSize))
	}
	return nil
}

// Close writes the terminator and flushes buffered output. It does not
// close the underlying writer.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.putUvarint(0) // terminator
	return e.w.Flush()
}

// decodeBatch is the most records one Decoder.Batch call returns.
// readBufLen, the size of the decoder's read buffer, is what is left of
// 4 KiB beside the batch and the decoder's other fields: a Decoder,
// records and bytes together, takes the 4 KiB that bufio.Reader's
// buffer alone took (TestDecoderBatchAllocs pins it).
const (
	decodeBatch = 16
	readBufLen  = 2816
)

// maxRecordLen bounds an encoded record: twelve varints (kind, begin
// delta, duration, flags and eight optional fields) of at most
// binary.MaxVarintLen64 bytes each, as a longer varint fails.
const maxRecordLen = 12 * binary.MaxVarintLen64

// errOverflow is encoding/binary's error for a varint longer than ten
// bytes, with its text.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// Decoder reads a trace stream produced by Encoder. It is the Reader
// over an encoded stream: Batch decodes up to decodeBatch records into
// an array the decoder reuses. The decoder reads its source through one
// fixed buffer and parses varints straight out of it, so decoding
// allocates nothing after NewDecoder.
type Decoder struct {
	src    io.Reader
	header Header
	prev   int64 // Begin of the last decoded record
	// err is the error Batch returns once the records before it are
	// consumed: io.EOF after the terminator, else the first decode error.
	err    error
	srcErr error // the first error src returned, io.EOF at its end
	r, w   int   // the unread bytes are buf[r:w]
	batch  [decodeBatch]Record
	buf    [readBufLen]byte
}

// NewDecoder reads and validates the stream header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{src: r}
	d.ensure(len(magic))
	if n := d.w - d.r; n < len(magic) {
		err := d.srcErr
		if n > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(d.buf[d.r:d.r+len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	d.r += len(magic)
	ver, err := d.uvarint()
	if err != nil {
		return nil, headerErr("version", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	rank, err := d.uvarint()
	if err != nil {
		return nil, headerErr("rank", err)
	}
	nranks, err := d.uvarint()
	if err != nil {
		return nil, headerErr("nranks", err)
	}
	clockhz, err := d.uvarint()
	if err != nil {
		return nil, headerErr("clockhz", err)
	}
	nmeta, err := d.uvarint()
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

// ensure makes at least n bytes readable, reading from the source as
// needed, unless the source ends or fails first (srcErr). A source that
// returns neither bytes nor an error 100 times in a row fails with
// io.ErrNoProgress, as under bufio.Reader.
func (d *Decoder) ensure(n int) {
	if d.w-d.r >= n || d.srcErr != nil {
		return
	}
	d.w = copy(d.buf[:], d.buf[d.r:d.w])
	d.r = 0
	for empty := 0; d.w < n && d.srcErr == nil; {
		k, err := d.src.Read(d.buf[d.w:])
		d.w += k
		d.srcErr = err
		if k > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			d.srcErr = io.ErrNoProgress
		}
	}
}

// uvarint parses one header varint.
func (d *Decoder) uvarint() (uint64, error) {
	d.ensure(binary.MaxVarintLen64)
	x, n, ok := uvarintAt(d.buf[d.r:d.w], 0)
	d.r += n
	if !ok {
		return x, varintErr(n, d.srcErr)
	}
	return x, nil
}

// readString reads a length-prefixed string. A stream that ends inside
// it fails with io.EOF, as io.CopyN does.
func (d *Decoder) readString() (string, error) {
	n, err := d.uvarint()
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
	for left := int(n); left > 0; {
		d.ensure(1)
		if d.r == d.w {
			return "", d.srcErr
		}
		c := min(left, d.w-d.r)
		sb.Write(d.buf[d.r : d.r+c])
		d.r += c
		left -= c
	}
	return sb.String(), nil
}

// Header returns the stream header read by NewDecoder.
func (d *Decoder) Header() Header { return d.header }

// Batch implements Reader. It decodes up to decodeBatch records; the
// view it returns is the decoder's own array, which the next call
// overwrites. After the terminator it returns io.EOF, and a stream
// truncated mid-record fails with a wrapped io.ErrUnexpectedEOF.
func (d *Decoder) Batch() ([]Record, error) {
	n := 0
	for d.err == nil && n < len(d.batch) {
		if d.err = d.decode(&d.batch[n]); d.err == nil {
			n++
		}
	}
	if n == 0 {
		return nil, d.err
	}
	return d.batch[:n], nil
}

// decode parses the next record into r, or returns io.EOF at the
// terminator. A varint that fails does so as binary.ReadUvarint would
// on the same bytes, except that a stream ending inside a record never
// reads as a clean end (see fieldErr).
func (d *Decoder) decode(r *Record) error {
	d.ensure(maxRecordLen)
	// Unless the source has ended, the whole record is readable. A
	// failed record is not consumed: decoding stops at it.
	b, end := d.buf[d.r:d.w], d.srcErr
	kind, i, ok := uvarintAt(b, 0)
	if !ok {
		if err := varintErr(i, end); !errors.Is(err, io.EOF) {
			return err
		}
		return fmt.Errorf("trace: truncated stream (missing terminator): %w", io.ErrUnexpectedEOF)
	}
	if kind == 0 {
		return io.EOF
	}
	j := i
	dbegin, i, ok := uvarintAt(b, i)
	if !ok {
		return fieldErr(i-j, end)
	}
	j = i
	dur, i, ok := uvarintAt(b, i)
	if !ok {
		return fieldErr(i-j, end)
	}
	j = i
	flags, i, ok := uvarintAt(b, i)
	if !ok {
		return fieldErr(i-j, end)
	}
	// The optional fields, in flag-bit order; an absent one reads 0.
	var f [8]uint64
	for bit := range f {
		if flags&(1<<bit) != 0 {
			j = i
			if f[bit], i, ok = uvarintAt(b, i); !ok {
				return fieldErr(i-j, end)
			}
		}
	}
	// Field by field: a composite literal would be built aside and
	// copied, which costs more than the parse.
	r.Kind = Kind(kind)
	r.Begin = d.prev + unzigzag(dbegin)
	r.End = r.Begin + int64(dur)
	r.Peer, r.Root = NoRank, NoRank
	if flags&flagPeer != 0 {
		r.Peer = int32(unzigzag(f[0]))
	}
	r.Tag = int32(unzigzag(f[1]))
	r.Bytes = int64(f[2])
	r.Req = f[3]
	r.Comm = int32(unzigzag(f[4]))
	r.Seq = int64(f[5])
	if flags&flagRoot != 0 {
		r.Root = int32(unzigzag(f[6]))
	}
	r.CommSize = int32(f[7])
	d.prev = r.Begin
	d.r += i
	return r.Validate()
}

// uvarintAt parses the unsigned varint at b[i:] and returns it with the
// index after it. ok is false when the varint overflows or b ends
// inside it, and the index then follows the bytes read. It is small
// enough to inline, and a one-byte value returns on the loop's first
// pass.
func uvarintAt(b []byte, i int) (x uint64, next int, ok bool) {
	for s := uint(0); i < len(b); s += 7 {
		v := b[i]
		i++
		if v < 0x80 {
			return x | uint64(v)<<s, i, s < 63 || v <= 1
		}
		x |= uint64(v&0x7f) << s
		if s == 63 {
			return x, i, false
		}
	}
	return x, i, false
}

// varintErr is the error binary.ReadUvarint returns for a varint that
// uvarintAt failed to parse after reading n bytes, when the source ends
// with end where the bytes do: errOverflow after ten bytes, else end
// before the varint's first byte and io.ErrUnexpectedEOF after it.
func varintErr(n int, end error) error {
	switch {
	case n == binary.MaxVarintLen64:
		return errOverflow
	case n > 0 && end == io.EOF:
		return io.ErrUnexpectedEOF
	}
	return end
}

// headerErr is the error for the header field name after the magic.
// The magic promises a whole header, so a source that ends cleanly
// before the field has cut it short: that is io.ErrUnexpectedEOF.
func headerErr(name string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: reading %s: %w", name, err)
}

// fieldErr is the error for a record field after the kind that
// uvarintAt failed to parse after reading n bytes. It is varintErr's,
// except that a source ending before the field's first byte has cut
// the record short: that is io.ErrUnexpectedEOF, not a clean io.EOF.
func fieldErr(n int, end error) error {
	err := varintErr(n, end)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated record: %w", err)
}

// unzigzag decodes a signed varint's zig-zag encoding.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}
