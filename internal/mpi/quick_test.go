package mpi

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/trace"
)

// randomProgram builds a deterministic-but-arbitrary program shape
// from a seed: a mix of ring exchanges, nonblocking bursts, and
// collectives.
func randomProgram(seed uint64, iters int) Program {
	return func(r *Rank) error {
		rng := dist.NewRNG(seed + uint64(r.Rank())*0) // same plan on every rank
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() + r.Size() - 1) % r.Size()
		for i := 0; i < iters; i++ {
			switch rng.Intn(4) {
			case 0:
				r.Compute(int64(100 + rng.Intn(5000)))
			case 1:
				if r.Size() > 1 {
					r.Sendrecv(next, i, int64(1+rng.Intn(2048)), prev, i)
				}
			case 2:
				var reqs []*Request
				if r.Size() > 1 {
					reqs = append(reqs,
						r.Isend(next, 100+i, 64),
						r.Irecv(prev, 100+i))
					r.Compute(int64(rng.Intn(2000)))
					r.Waitall(reqs...)
				}
			case 3:
				switch rng.Intn(4) {
				case 0:
					r.Barrier()
				case 1:
					r.Allreduce(8)
				case 2:
					r.Bcast(0, 256)
				case 3:
					r.Scan(8)
				}
			}
		}
		return nil
	}
}

// TestQuickRuntimeDeterministicAndValid: arbitrary program shapes on
// arbitrary machines always (a) complete, (b) are bit-identical across
// two runs, and (c) produce individually valid, per-rank-ordered
// records.
func TestQuickRuntimeDeterministicAndValid(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		n := 1 + rng.Intn(6)
		iters := 1 + rng.Intn(8)
		mcfg := machine.Config{
			NRanks:  n,
			Seed:    seed,
			Noise:   dist.Exponential{MeanValue: float64(rng.Intn(200))},
			Latency: dist.Uniform{Low: 100, High: 2000},
		}
		if rng.Intn(2) == 0 {
			mcfg.EagerLimit = int64(rng.Intn(4096))
		}
		if rng.Intn(2) == 0 {
			mcfg.Topology = machine.Topology(rng.Intn(4))
		}
		prog := randomProgram(seed, iters)
		a, err := Run(Config{Machine: mcfg}, prog)
		if err != nil {
			t.Logf("seed %#x: %v", seed, err)
			return false
		}
		b, err := Run(Config{Machine: mcfg}, prog)
		if err != nil {
			return false
		}
		if a.Makespan != b.Makespan {
			t.Logf("seed %#x: makespans differ", seed)
			return false
		}
		for rank := range a.Traces {
			if !reflect.DeepEqual(a.Traces[rank].Records, b.Traces[rank].Records) {
				t.Logf("seed %#x: rank %d traces differ", seed, rank)
				return false
			}
			prevEnd := int64(-1 << 62)
			for _, rec := range a.Traces[rank].Records {
				if rec.Validate() != nil || rec.Begin < prevEnd {
					t.Logf("seed %#x: invalid/overlapping record %+v", seed, rec)
					return false
				}
				prevEnd = rec.End
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTraceRoundTripThroughCodec: every runtime-produced trace
// survives a binary encode/decode round trip byte-exactly.
func TestQuickTraceRoundTripThroughCodec(t *testing.T) {
	f := func(seed uint64) bool {
		rng := dist.NewRNG(seed)
		n := 2 + rng.Intn(3)
		res, err := Run(Config{Machine: machine.Config{
			NRanks:      n,
			Seed:        seed,
			ClockOffset: dist.Uniform{Low: 0, High: 1e15}, // stress varints
		}}, randomProgram(seed, 4))
		if err != nil {
			return false
		}
		for _, m := range res.Traces {
			var buf bytes.Buffer
			enc, err := trace.NewEncoder(&buf, m.Hdr)
			if err != nil {
				return false
			}
			for _, rec := range m.Records {
				if err := enc.Encode(rec); err != nil {
					return false
				}
			}
			if err := enc.Close(); err != nil {
				return false
			}
			rd, err := trace.NewDecoder(&buf)
			if err != nil {
				return false
			}
			back, err := trace.ReadAll(rd)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(back.Records, m.Records) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
