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

// Decoder reads a trace stream produced by Encoder.
type Decoder struct {
	r      *bufio.Reader
	header Header
	done   bool
	prev   int64
}

// NewDecoder reads and validates the stream header.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(d.r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, ErrBadMagic
	}
	ver, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d", ver)
	}
	rank, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	nranks, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	clockhz, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
	}
	nmeta, err := binary.ReadUvarint(d.r)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("trace: reading metadata entry %d of %d: %w", i, nmeta, err)
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

func (d *Decoder) readString() (string, error) {
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

// Header returns the stream header read by NewDecoder.
func (d *Decoder) Header() Header { return d.header }

// Decode reads the next record. It returns io.EOF after the stream
// terminator (a clean end) and a wrapped io.ErrUnexpectedEOF if the
// stream is truncated mid-record.
func (d *Decoder) Decode() (Record, error) {
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
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	r.Begin = d.prev + dbegin
	d.prev = r.Begin
	dur, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	r.End = r.Begin + int64(dur)
	flags, err := binary.ReadUvarint(d.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	r.Peer, r.Root = NoRank, NoRank
	if flags&flagPeer != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Peer = int32(v)
	}
	if flags&flagTag != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Tag = int32(v)
	}
	if flags&flagBytes != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Bytes = int64(v)
	}
	if flags&flagReq != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Req = v
	}
	if flags&flagComm != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Comm = int32(v)
	}
	if flags&flagSeq != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Seq = int64(v)
	}
	if flags&flagRoot != 0 {
		v, err := binary.ReadVarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.Root = int32(v)
	}
	if flags&flagCommSize != 0 {
		v, err := binary.ReadUvarint(d.r)
		if err != nil {
			return Record{}, err
		}
		r.CommSize = int32(v)
	}
	if err := r.Validate(); err != nil {
		return Record{}, err
	}
	return r, nil
}
