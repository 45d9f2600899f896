package mpi_test

import (
	"fmt"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/workloads"
)

// BenchmarkTraceGen times trace generation alone: whole runs traced in
// memory on a noisy machine, reported per traced event. The token ring
// is the paper's §6.1 workload; the 2-D stencil mixes nonblocking
// halo exchanges with many ranks.
func BenchmarkTraceGen(b *testing.B) {
	for _, bc := range []struct {
		workload     string
		ranks, iters int
	}{
		{"tokenring", 128, 10},
		{"stencil2d", 256, 40},
	} {
		b.Run(fmt.Sprintf("%s-%dx%d", bc.workload, bc.ranks, bc.iters), func(b *testing.B) {
			prog, err := workloads.BuildByName(bc.workload, workloads.Options{Iterations: bc.iters})
			if err != nil {
				b.Fatal(err)
			}
			cfg := mpi.Config{Machine: machine.Config{
				NRanks: bc.ranks,
				Seed:   1,
				Noise:  dist.Exponential{MeanValue: 100},
			}}
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				res, err := mpi.Run(cfg, prog)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Stats.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
