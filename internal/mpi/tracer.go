package mpi

import "mpgraph/internal/trace"

// recordSink abstracts where a rank's trace records go: an in-memory
// trace, a buffered file writer, or nowhere.
type recordSink interface {
	add(trace.Record) error
}

// tracer is the PMPI-style tracing layer of one rank: every MPI call
// in rank.go/comm.go produces exactly one record (plus one per request
// for Waitall), stamped with local-clock times.
type tracer struct {
	world *World
	rank  int
	sink  recordSink
}

func (t *tracer) add(rec trace.Record) error { return t.sink.add(rec) }

// memSink collects records in memory.
type memSink struct {
	mem *trace.MemTrace
}

func (s *memSink) add(rec trace.Record) error { return s.mem.Append(rec) }

// writerSink forwards records to a buffered trace.Writer.
type writerSink struct {
	w *trace.Writer
}

func (s writerSink) add(rec trace.Record) error { return s.w.Record(rec) }

// nopSink discards records (tracing disabled).
type nopSink struct{}

func (nopSink) add(trace.Record) error { return nil }
