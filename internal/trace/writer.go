package trace

import (
	"errors"
	"fmt"
	"io"
)

// Writer is the paper's memory-resident event buffer (Section 4): the
// PMPI-style tracing layer records events into it, and every capacity
// events it is dumped to the underlying stream. The buffer size is
// tunable "to compensate for event frequency and overhead for I/O" —
// here it sets how often the stream is flushed. Events are encoded as
// they are recorded, into the encoder's fixed-size output buffer (which
// also writes out whenever it fills), so a buffered event costs its few
// encoded bytes rather than a Record struct: a run opens one writer per
// rank, and capacity Records per rank would dwarf the trace itself.
type Writer struct {
	enc      *Encoder
	capacity int
	pending  int // records encoded since the last dump
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
	return &Writer{enc: enc, capacity: capacity}, nil
}

// Record appends one event. Events must be appended in non-decreasing
// Begin order and must not overlap (End of one event precedes Begin of
// the next); that is how a single sequential processor behaves, and
// the graph builder relies on it.
func (w *Writer) Record(r Record) error {
	if w.closed {
		return errors.New("trace: record on closed writer")
	}
	if w.started && r.Begin < w.lastEnd {
		return fmt.Errorf("trace: out-of-order record: begin %d before previous end %d", r.Begin, w.lastEnd)
	}
	if err := w.enc.Encode(r); err != nil {
		return err
	}
	w.started = true
	w.lastEnd = r.End
	w.pending++
	w.records++
	if w.pending >= w.capacity {
		return w.flush()
	}
	return nil
}

func (w *Writer) flush() error {
	w.pending = 0
	w.flushes++
	return w.enc.w.Flush()
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

// Reader is a sequential source of one rank's trace records.
//
// Batch returns a view of the next records: at least one record and a
// nil error, or no records and an error, io.EOF at the clean end of the
// stream. Every record it hands out has passed Record.Validate, so a
// consumer need not check one again. The view is valid until the next
// call to Batch, which may overwrite it: a consumer that keeps records
// longer copies them, and no consumer modifies them (a MemTrace's view
// is its own record slice). An error is deferred until the records
// before it have been handed out: the batch that reaches a failing
// record ends just before it, and the next call returns the error, so
// a consumer stops at the same record whatever the batch size. Once
// Batch has returned an error, it keeps returning it.
type Reader interface {
	Header() Header
	Batch() ([]Record, error)
}

// MemTrace is an in-memory trace for one rank; it implements Reader
// (restartable via Reset) and is the form small tests and the DOT
// exporter use.
//
// A MemTrace counts its leading records that are known to be valid:
// Append validates each record it adds, ReadAll and a Snapshot's sets
// carry the count over, and Batch validates the rest once. Records
// must therefore not be modified or replaced once a Set has read them.
type MemTrace struct {
	Hdr     Header
	Records []Record
	valid   int // leading Records known to pass Record.Validate
	read    int // Records handed out since the last Reset
}

// RecordError is the error a MemTrace's Batch returns for a record that
// fails Record.Validate, after handing out the valid records before it.
type RecordError struct {
	Index int64 // the record's index in the rank's trace
	Err   error // what Record.Validate reported
}

func (e *RecordError) Error() string { return fmt.Sprintf("record %d: %v", e.Index, e.Err) }

func (e *RecordError) Unwrap() error { return e.Err }

// Append validates rec and adds it to the trace.
func (m *MemTrace) Append(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if m.valid == len(m.Records) {
		m.valid++
	}
	m.Records = append(m.Records, rec)
	return nil
}

// validate extends the valid prefix up to the first invalid record and
// returns its *RecordError, or nil when every record is valid.
func (m *MemTrace) validate() error {
	m.valid = min(m.valid, len(m.Records))
	for ; m.valid < len(m.Records); m.valid++ {
		if err := m.Records[m.valid].Validate(); err != nil {
			return &RecordError{Index: int64(m.valid), Err: err}
		}
	}
	return nil
}

// Header implements Reader.
func (m *MemTrace) Header() Header { return m.Hdr }

// Batch implements Reader: it returns the records not yet handed out,
// without copying (all of Records at the first call), and io.EOF once
// none are left, until Reset. If a record is invalid, Batch stops
// before it, and later calls return its *RecordError.
func (m *MemTrace) Batch() ([]Record, error) {
	err := m.validate()
	if m.read < m.valid {
		recs := m.Records[m.read:m.valid:m.valid]
		m.read = m.valid
		return recs, nil
	}
	if err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Reset rewinds the trace so it can be read again.
func (m *MemTrace) Reset() { m.read = 0 }

// ReadAll drains a Reader into a MemTrace.
func ReadAll(r Reader) (*MemTrace, error) {
	m := &MemTrace{Hdr: r.Header()}
	for {
		recs, err := r.Batch()
		if err != nil { // tested first: errors.Is costs a call per batch
			if errors.Is(err, io.EOF) {
				m.valid = len(m.Records) // a Reader hands out valid records only
				return m, nil
			}
			return nil, err
		}
		m.Records = append(m.Records, recs...)
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
