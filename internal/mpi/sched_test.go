package mpi

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mpgraph/internal/trace"
)

// TestRunLeavesNoGoroutines checks that every rank coroutine has
// finished or been stopped by the time Run returns, whether the run
// succeeds, deadlocks or fails.
func TestRunLeavesNoGoroutines(t *testing.T) {
	const nranks = 16
	left := func(r *Rank) int { return (r.Rank() + r.Size() - 1) % r.Size() }
	right := func(r *Rank) int { return (r.Rank() + 1) % r.Size() }
	cases := []struct {
		name    string
		prog    Program
		wantErr bool
	}{
		{"success", func(r *Rank) error {
			if r.Rank() == 0 {
				r.Send(right(r), 0, 64)
				r.Recv(left(r), 0)
			} else {
				r.Recv(left(r), 0)
				r.Send(right(r), 0, 64)
			}
			r.Barrier()
			return nil
		}, false},
		{"point-to-point deadlock", func(r *Rank) error {
			r.Compute(int64(r.Rank()) * 10)
			r.Recv(left(r), 0)
			return nil
		}, true},
		{"collective deadlock", func(r *Rank) error {
			if r.Rank() == 9 {
				r.Recv(0, 0)
			}
			r.Allreduce(8)
			return nil
		}, true},
		{"rank panic", func(r *Rank) error {
			if r.Rank() == 5 {
				r.Compute(100)
				panic("boom")
			}
			r.Recv(5, 0)
			return nil
		}, true},
		{"program error", func(r *Rank) error {
			if r.Rank() == 7 {
				r.Compute(100)
				return errors.New("bad input")
			}
			r.Barrier()
			return nil
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			_, err := Run(Config{Machine: quiet(nranks)}, tc.prog)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestTraceDirSetupFailureClosesWriters makes the trace file of rank 3
// uncreatable and checks that Run releases the files it had already
// opened for ranks 0..2.
func TestTraceDirSetupFailureClosesWriters(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, trace.FileName(3)), 0o755); err != nil {
		t.Fatal(err)
	}
	before := openFiles()
	_, err := Run(Config{Machine: quiet(4), TraceDir: dir}, func(r *Rank) error { return nil })
	if err == nil {
		t.Fatal("Run succeeded with an uncreatable trace file")
	}
	if after := openFiles(); after != before {
		t.Fatalf("%d open files after the failed Run, %d before", after, before)
	}
}
