package mpi_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// traceDigest pins the runtime's output byte for byte: the sha256 of
// every registered workload × ranks {2, 5, 16, 64} × seeds {1, 2, 3},
// traced both to files and in memory, with the run's final times and
// counters (or its error text, for workloads that reject a size). Any
// change to the schedule, the timing model or the trace codec moves
// it.
const traceDigest = "a25d1fb29395257d298b7c4d8f6d43e57ef6dadcbe00a6102a31504491255752"

func TestTraceDigests(t *testing.T) {
	h := sha256.New()
	for _, name := range workloads.Names() {
		for _, ranks := range []int{2, 5, 16, 64} {
			for _, seed := range []uint64{1, 2, 3} {
				fmt.Fprintf(h, "== %s ranks=%d seed=%d\n", name, ranks, seed)
				digestRun(t, h, name, ranks, seed)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != traceDigest {
		t.Fatalf("trace digest = %s, want %s", got, traceDigest)
	}
}

// digestRun traces one configuration to a directory and in memory and
// feeds both, plus the run summary, to h.
func digestRun(t *testing.T, h hash.Hash, name string, ranks int, seed uint64) {
	t.Helper()
	mcfg := machine.Config{NRanks: ranks, Seed: seed, Noise: dist.Exponential{MeanValue: 100}}
	prog, err := workloads.BuildByName(name, workloads.Options{Iterations: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fileRes, err := mpi.Run(mpi.Config{Machine: mcfg, TraceDir: dir}, prog)
	if err != nil {
		fmt.Fprintf(h, "file error: %v\n", err)
	} else {
		digestResult(h, fileRes)
		for rank := 0; rank < ranks; rank++ {
			b, err := os.ReadFile(filepath.Join(dir, trace.FileName(rank)))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "file %d %d\n", rank, len(b))
			h.Write(b)
		}
	}
	memRes, err := mpi.Run(mpi.Config{Machine: mcfg}, prog)
	if err != nil {
		fmt.Fprintf(h, "mem error: %v\n", err)
		return
	}
	digestResult(h, memRes)
	for _, m := range memRes.Traces {
		fmt.Fprintf(h, "mem %+v\n", m.Hdr)
		for _, rec := range m.Records {
			fmt.Fprintf(h, "%+v\n", rec)
		}
	}
}

func digestResult(h hash.Hash, res *mpi.Result) {
	fmt.Fprintf(h, "final %v makespan %d stats %+v\n", res.FinalGlobal, res.Makespan, res.Stats)
}

// TestRunErrorTexts pins the exact text of every way a run can fail, so
// the deadlock report's wording and rank order survive scheduler work.
func TestRunErrorTexts(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		prog  mpi.Program
		want  string
	}{
		{
			name:  "blocking receive deadlock",
			ranks: 12,
			prog: func(r *mpi.Rank) error {
				r.Recv((r.Rank()+r.Size()-1)%r.Size(), 4)
				return nil
			},
			want: "mpi: deadlock; blocked ranks: [rank 0: recv(src=11 tag=4) rank 10: recv(src=9 tag=4) rank 11: recv(src=10 tag=4) rank 1: recv(src=0 tag=4) rank 2: recv(src=1 tag=4) rank 3: recv(src=2 tag=4) rank 4: recv(src=3 tag=4) rank 5: recv(src=4 tag=4) rank 6: recv(src=5 tag=4) rank 7: recv(src=6 tag=4) rank 8: recv(src=7 tag=4) rank 9: recv(src=8 tag=4)]",
		},
		{
			name:  "synchronous send deadlock",
			ranks: 2,
			prog: func(r *mpi.Rank) error {
				r.Ssend(1-r.Rank(), 3, 64)
				return nil
			},
			want: "mpi: deadlock; blocked ranks: [rank 0: send(dst=1 tag=3) rank 1: send(dst=0 tag=3)]",
		},
		{
			name:  "collective deadlock",
			ranks: 3,
			prog: func(r *mpi.Rank) error {
				if r.Rank() == 2 {
					r.Recv(0, 7)
					return nil
				}
				r.Barrier()
				r.Allreduce(8)
				return nil
			},
			want: "mpi: deadlock; blocked ranks: [rank 0: barrier(comm=0 seq=1) rank 1: barrier(comm=0 seq=1) rank 2: recv(src=0 tag=7)]",
		},
		{
			name:  "wait deadlock",
			ranks: 2,
			prog: func(r *mpi.Rank) error {
				if r.Rank() == 0 {
					r.Wait(r.Isend(1, 9, 1<<20))
				} else {
					r.Wait(r.Irecv(0, 8))
				}
				return nil
			},
			want: "mpi: deadlock; blocked ranks: [rank 0: wait(send tag=9 peer=1) rank 1: wait(recv tag=8 peer=0)]",
		},
		{
			name:  "wildcard receive deadlock",
			ranks: 3,
			prog: func(r *mpi.Rank) error {
				r.RecvAny(5)
				return nil
			},
			want: "mpi: deadlock; blocked ranks: [rank 0: recv(src=ANY tag=5) rank 1: recv(src=ANY tag=5) rank 2: recv(src=ANY tag=5)]",
		},
		{
			name:  "program error",
			ranks: 4,
			prog: func(r *mpi.Rank) error {
				if r.Rank() == 2 {
					return errors.New("bad input")
				}
				r.Barrier()
				return nil
			},
			want: "mpi: rank 2: bad input",
		},
		{
			name:  "rank panic",
			ranks: 4,
			prog: func(r *mpi.Rank) error {
				if r.Rank() == 1 {
					r.Compute(10)
					panic("boom")
				}
				r.Recv(1, 0)
				return nil
			},
			want: "mpi: rank 1 panicked: boom",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: tc.ranks, Seed: 1}}, tc.prog)
			if err == nil {
				t.Fatal("run succeeded")
			}
			if err.Error() != tc.want {
				t.Fatalf("error =\n%q\nwant\n%q", err.Error(), tc.want)
			}
		})
	}
}
