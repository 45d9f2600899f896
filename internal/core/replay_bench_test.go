package core

import (
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// benchCompiled builds the same stencil1d workload mpg-bench -replay
// times, so profiles taken here explain the committed BENCH_replay.json
// numbers.
func benchCompiled(b *testing.B) *Compiled {
	b.Helper()
	prog, err := workloads.BuildByName("stencil1d", workloads.Options{
		Iterations: 10, CollEvery: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: 64, Seed: 1}}, prog)
	if err != nil {
		b.Fatal(err)
	}
	set, err := res.TraceSet()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := trace.NewSnapshot(set)
	if err != nil {
		b.Fatal(err)
	}
	cset, release := snap.Acquire()
	defer release()
	compiled, err := Compile(cset, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return compiled
}

// benchModel mirrors mpg-bench's replayModel: all three sampled delta
// classes active so the benchmark pays representative draw costs.
func benchModel(trial int) *Model {
	return &Model{
		Seed:       uint64(trial)*0x9e3779b97f4a7c15 + 1,
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
}

func BenchmarkReplayCompiled(b *testing.B) {
	compiled := benchCompiled(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayCompiled(compiled, benchModel(i), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
