package core

import (
	"runtime"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/machine"
	"mpgraph/internal/mpi"
	"mpgraph/internal/trace"
	"mpgraph/internal/workloads"
)

// heapSampleEvery is the event count between live-heap samples.
const heapSampleEvery = 1 << 14

// analyzeLiveHeap traces the workload at 64 ranks into files, then
// analyzes them as read from disk, with the critical path off. Every
// heapSampleEvery events a forced GC measures the live heap; the peak
// of those samples is returned with the event count.
func analyzeLiveHeap(t *testing.T, wl string, iters int) (peak uint64, events int64) {
	t.Helper()
	prog, err := workloads.BuildByName(wl, workloads.Options{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := mpi.Run(mpi.Config{Machine: machine.Config{NRanks: 64, Seed: 1}, TraceDir: dir}, prog); err != nil {
		t.Fatal(err)
	}
	set, closeFn, err := trace.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	model := &Model{
		Seed:       3,
		OSNoise:    dist.Exponential{MeanValue: 300},
		MsgLatency: dist.Exponential{MeanValue: 500},
		PerByte:    dist.Constant{C: 0.5},
	}
	var ms runtime.MemStats
	opts := Options{Trajectory: func(TrajectoryPoint) {
		if events++; events%heapSampleEvery == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
	}}
	if _, err := Analyze(set, model, opts); err != nil {
		t.Fatal(err)
	}
	if peak == 0 {
		t.Fatalf("%s: %d events, fewer than one heap sample", wl, events)
	}
	return peak, events
}

// TestAnalyzeLiveHeapBounded pins the §4.2/§6 streaming claim in
// bytes: the analyzer's live heap is set by the window of in-flight
// operations, not by trace length. Requests retire at their wait and
// finished transfers are recycled, so 16 times the iterations must
// stay within 1.5x of the short run's heap. Keeping every request and
// its transfer until the end grows the heap ~15x here.
func TestAnalyzeLiveHeapBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("live-heap test skipped in -short mode")
	}
	for _, wl := range []string{"stencil2d", "cg"} {
		short, shortEvents := analyzeLiveHeap(t, wl, 50)
		long, longEvents := analyzeLiveHeap(t, wl, 800)
		ratio := float64(long) / float64(short)
		t.Logf("%s: live heap %.1f MB at %d events, %.1f MB at %d events (%.2fx)",
			wl, float64(short)/(1<<20), shortEvents, float64(long)/(1<<20), longEvents, ratio)
		if ratio > 1.5 {
			t.Errorf("%s: live heap grows %.2fx from 50 to 800 iterations; want <= 1.5x", wl, ratio)
		}
	}
}

// TestFinishedTransfersRecycled: a transfer goes on the free list once
// both its sides complete, so a clean run ends with every msgState it
// carved either recycled or unused, and a trace four times longer
// carves no more of them.
func TestFinishedTransfersRecycled(t *testing.T) {
	for _, wl := range []string{"stencil2d", "cg"} {
		carved := make([]int, 2)
		for k, iters := range []int{10, 40} {
			snap := snapWorkload(t, wl, 16, workloads.Options{Iterations: iters})
			set, release := snap.Acquire()
			a, err := newAnalyzer(set, &Model{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = a.run()
			release()
			if err != nil {
				t.Fatal(err)
			}
			free := 0
			for m := a.msgFree; m != nil; m = m.next {
				free++
			}
			carved[k] = free + len(a.msgSlab)
			if free == 0 || carved[k]%msgSlabLen != 0 {
				t.Fatalf("%s, %d iterations: %d transfers recycled and %d unused, of %d matched; want every carved transfer back",
					wl, iters, free, len(a.msgSlab), a.nMatches)
			}
		}
		if carved[1] != carved[0] {
			t.Errorf("%s: %d transfers carved at 40 iterations, %d at 10", wl, carved[1], carved[0])
		}
	}
}
