// Command mpg-stat summarizes a trace directory: per-kind event
// counts, message-size and compute-gap statistics, per-rank volume —
// the quick census one runs before deciding what to perturb:
//
//	mpg-stat -traces traces/
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mpgraph/internal/cli"
	"mpgraph/internal/dist"
	"mpgraph/internal/obsv"
	"mpgraph/internal/report"
	"mpgraph/internal/trace"
)

func main() {
	os.Exit(cli.ExitCode("mpg-stat", run(os.Args[1:]), os.Stderr))
}

func run(args []string) error {
	fs := flag.NewFlagSet("mpg-stat", flag.ContinueOnError)
	traces := fs.String("traces", "", "trace directory from mpg-trace (required)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *traces == "" {
		return fmt.Errorf("-traces is required")
	}
	set, closeFn, err := trace.OpenDir(*traces)
	if err != nil {
		return err
	}
	defer closeFn() //nolint:errcheck

	// Scan throughput instrumentation: how fast this census chews
	// through the trace directory.
	reg := obsv.NewRegistry()
	nEvents := reg.Counter("stat_events_total")
	nBytes := reg.Counter("stat_sent_bytes_total")
	scan := reg.Time("stat_scan")

	kindCounts := map[trace.Kind]int64{}
	var msgBytes, gaps, durations []float64
	type rankAgg struct {
		events int64
		bytes  int64
		span   int64
	}
	perRank := make([]rankAgg, set.NRanks())

	for rank := 0; rank < set.NRanks(); rank++ {
		rd := set.Rank(rank)
		var prevEnd int64
		var first, last int64
		started := false
		for {
			recs, err := rd.Batch()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			for _, rec := range recs {
				kindCounts[rec.Kind]++
				perRank[rank].events++
				nEvents.Inc()
				if rec.Kind == trace.KindSend || rec.Kind == trace.KindIsend {
					msgBytes = append(msgBytes, float64(rec.Bytes))
					perRank[rank].bytes += rec.Bytes
					nBytes.Add(rec.Bytes)
				}
				if started {
					gaps = append(gaps, float64(rec.Begin-prevEnd))
				} else {
					first = rec.Begin
					started = true
				}
				durations = append(durations, float64(rec.Duration()))
				prevEnd = rec.End
				last = rec.End
			}
		}
		perRank[rank].span = last - first
	}
	scan.End()

	// Per-kind table, sorted by count.
	type kc struct {
		k trace.Kind
		n int64
	}
	var kcs []kc
	for k, n := range kindCounts {
		kcs = append(kcs, kc{k, n})
	}
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].n != kcs[j].n {
			return kcs[i].n > kcs[j].n
		}
		return kcs[i].k < kcs[j].k
	})
	kt := report.NewTable("events by kind", "kind", "count")
	for _, e := range kcs {
		kt.AddRow(e.k.String(), e.n)
	}
	if err := kt.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Printf("\nmessage sizes:  %s\n", dist.Summarize(msgBytes))
	fmt.Printf("compute gaps:   %s\n", dist.Summarize(gaps))
	fmt.Printf("event durations: %s\n", dist.Summarize(durations))
	if secs := reg.Timer("stat_scan").Total().Seconds(); secs > 0 {
		fmt.Printf("scan rate:      %.3g events/sec, %.3g sent-bytes/sec (%d events in %.1fms)\n",
			float64(nEvents.Value())/secs, float64(nBytes.Value())/secs,
			nEvents.Value(), secs*1000)
	}

	rt := report.NewTable("per-rank", "rank", "events", "sent-bytes", "local-span")
	for rank, agg := range perRank {
		rt.AddRow(rank, agg.events, agg.bytes, agg.span)
	}
	fmt.Println()
	return rt.Render(os.Stdout)
}
