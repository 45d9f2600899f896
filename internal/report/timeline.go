package report

import (
	"fmt"
	"io"

	"mpgraph/internal/trace"
)

// Timeline renders a textual per-rank activity chart of a traced run —
// the quick-look view trace browsers like Vampir provide (paper §1.1).
// Each rank is one row of width buckets; a bucket shows the event kind
// that occupies most of it:
//
//	.  compute (gap between events)
//	s  blocking send        r  blocking receive
//	i  nonblocking post     w  wait / waitall
//	C  collective           m  marker / init / finalize
//
// Times are per-rank *relative* to the rank's first event: with
// unsynchronized clocks (the paper's §4.1 setting), columns are only
// loosely comparable across ranks; the chart is a shape overview, not
// a precise alignment. The set's readers are drained.
func Timeline(w io.Writer, set *trace.Set, width int) error {
	if width < 10 {
		width = 80
	}
	type rankSpan struct {
		recs  []trace.Record
		base  int64
		total int64
	}
	spans := make([]rankSpan, set.NRanks())
	var maxTotal int64
	for rank := 0; rank < set.NRanks(); rank++ {
		m, err := trace.ReadAll(set.Rank(rank))
		if err != nil {
			return err
		}
		recs := m.Records
		if len(recs) == 0 {
			return fmt.Errorf("report: rank %d trace is empty", rank)
		}
		base := recs[0].Begin
		total := recs[len(recs)-1].End - base
		spans[rank] = rankSpan{recs: recs, base: base, total: total}
		if total > maxTotal {
			maxTotal = total
		}
	}
	if maxTotal == 0 {
		maxTotal = 1
	}

	fmt.Fprintf(w, "timeline: %d ranks, %d cycles/column (per-rank relative time)\n",
		set.NRanks(), (maxTotal+int64(width)-1)/int64(width))
	for rank, sp := range spans {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		// Fill compute regions first, then overwrite with events.
		end := int(int64(width) * sp.total / maxTotal)
		for i := 0; i < end && i < width; i++ {
			row[i] = '.'
		}
		for _, rec := range sp.recs {
			lo := int(int64(width) * (rec.Begin - sp.base) / maxTotal)
			hi := int(int64(width) * (rec.End - sp.base) / maxTotal)
			if hi >= width {
				hi = width - 1
			}
			ch := glyph(rec.Kind)
			for i := lo; i <= hi && i < width; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(w, "%4d |%s|\n", rank, string(row))
	}
	fmt.Fprintln(w, "legend: . compute  s send  r recv  i isend/irecv  w wait  C collective  m admin")
	return nil
}

func glyph(k trace.Kind) byte {
	switch {
	case k == trace.KindSend:
		return 's'
	case k == trace.KindRecv:
		return 'r'
	case k == trace.KindIsend || k == trace.KindIrecv:
		return 'i'
	case k.IsCompletion():
		return 'w'
	case k.IsCollective():
		return 'C'
	default:
		return 'm'
	}
}
