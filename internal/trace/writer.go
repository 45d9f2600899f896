package trace

import (
	"errors"
	"fmt"
	"io"
)

// Writer is the paper's memory-resident event buffer (Section 4): the
// PMPI-style tracing layer records events into it, and when the buffer
// fills it is dumped to the underlying encoder and reset. The buffer
// size is tunable "to compensate for event frequency and overhead for
// I/O" — here it simply controls how often Encode batches are pushed
// to the (possibly file-backed) stream.
type Writer struct {
	enc      *Encoder
	buf      []Record
	capacity int
	flushes  int
	records  int64
	closed   bool
	lastEnd  int64
	started  bool
}

// NewWriter creates a buffered trace writer over w with the given
// buffer capacity (records). Capacity < 1 is treated as 1.
func NewWriter(w io.Writer, h Header, capacity int) (*Writer, error) {
	if capacity < 1 {
		capacity = 1
	}
	enc, err := NewEncoder(w, h)
	if err != nil {
		return nil, err
	}
	return &Writer{enc: enc, buf: make([]Record, 0, capacity), capacity: capacity}, nil
}

// Record appends one event. Events must be appended in non-decreasing
// Begin order and must not overlap (End of one event precedes Begin of
// the next); that is how a single sequential processor behaves, and
// the graph builder relies on it.
func (w *Writer) Record(r Record) error {
	if w.closed {
		return errors.New("trace: record on closed writer")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if w.started && r.Begin < w.lastEnd {
		return fmt.Errorf("trace: out-of-order record: begin %d before previous end %d", r.Begin, w.lastEnd)
	}
	w.started = true
	w.lastEnd = r.End
	w.buf = append(w.buf, r)
	w.records++
	if len(w.buf) >= w.capacity {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	for _, r := range w.buf {
		if err := w.enc.Encode(r); err != nil {
			return err
		}
	}
	w.buf = w.buf[:0]
	w.flushes++
	return nil
}

// Close flushes any buffered events and finalizes the stream.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	w.closed = true
	return w.enc.Close()
}

// Flushes returns how many times the internal buffer was dumped,
// exposed so tests can verify the flush-on-full behaviour.
func (w *Writer) Flushes() int { return w.flushes }

// Records returns the total number of events recorded.
func (w *Writer) Records() int64 { return w.records }

// Reader is a sequential source of one rank's trace records. Next
// returns io.EOF at the clean end of the stream.
type Reader interface {
	Header() Header
	Next() (Record, error)
}

// decoderReader adapts Decoder to Reader.
type decoderReader struct{ d *Decoder }

func (r decoderReader) Header() Header        { return r.d.Header() }
func (r decoderReader) Next() (Record, error) { return r.d.Decode() }

// NewReader wraps an encoded stream as a Reader.
func NewReader(src io.Reader) (Reader, error) {
	d, err := NewDecoder(src)
	if err != nil {
		return nil, err
	}
	return decoderReader{d: d}, nil
}

// MemTrace is an in-memory trace for one rank; it implements Reader
// (restartable via Reset) and is the form small tests and the DOT
// exporter use.
type MemTrace struct {
	Hdr     Header
	Records []Record
	pos     int
}

// Header implements Reader.
func (m *MemTrace) Header() Header { return m.Hdr }

// Next implements Reader.
func (m *MemTrace) Next() (Record, error) {
	if m.pos >= len(m.Records) {
		return Record{}, io.EOF
	}
	r := m.Records[m.pos]
	m.pos++
	return r, nil
}

// Reset rewinds the trace so it can be read again.
func (m *MemTrace) Reset() { m.pos = 0 }

// ReadAll drains a Reader into a MemTrace.
func ReadAll(r Reader) (*MemTrace, error) {
	m := &MemTrace{Hdr: r.Header()}
	for {
		rec, err := r.Next()
		if err != nil { // tested first: errors.Is costs a call per record
			if errors.Is(err, io.EOF) {
				return m, nil
			}
			return nil, err
		}
		m.Records = append(m.Records, rec)
	}
}

// Set is a complete traced run: one Reader per rank, indexed by rank.
// The graph builder consumes a Set.
type Set struct {
	readers []Reader
}

// NewSet builds a Set from per-rank readers. It validates that every
// rank 0..n-1 is present exactly once and that the headers agree on
// the world size.
func NewSet(readers []Reader) (*Set, error) {
	if len(readers) == 0 {
		return nil, errors.New("trace: empty trace set")
	}
	byRank := make([]Reader, len(readers))
	for _, r := range readers {
		h := r.Header()
		if h.NRanks != len(readers) {
			return nil, fmt.Errorf("trace: rank %d header claims %d ranks, set has %d",
				h.Rank, h.NRanks, len(readers))
		}
		if h.Rank < 0 || h.Rank >= len(readers) {
			return nil, fmt.Errorf("trace: rank %d outside world of size %d", h.Rank, len(readers))
		}
		if byRank[h.Rank] != nil {
			return nil, fmt.Errorf("trace: duplicate trace for rank %d", h.Rank)
		}
		byRank[h.Rank] = r
	}
	return &Set{readers: byRank}, nil
}

// NRanks returns the world size.
func (s *Set) NRanks() int { return len(s.readers) }

// Rank returns the reader for one rank.
func (s *Set) Rank(i int) Reader { return s.readers[i] }

// resetter is implemented by rewindable readers (MemTrace).
type resetter interface{ Reset() }

// Reset rewinds every reader to the beginning and reports whether it
// could (file-backed readers are not rewindable). A Set is otherwise
// single-use: the analyzer consumes its readers.
func (s *Set) Reset() bool {
	for _, r := range s.readers {
		if _, ok := r.(resetter); !ok {
			return false
		}
	}
	for _, r := range s.readers {
		r.(resetter).Reset()
	}
	return true
}
