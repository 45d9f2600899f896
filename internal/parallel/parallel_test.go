package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpgraph/internal/obsv"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := Map(100, Options{Workers: workers}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d landed as %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(0, Options{}, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("Map(0) = %v, %v", got, err)
	}
}

// TestMapNoDoubleWrite hammers the pool with far more tasks than
// workers and asserts every result slot is written exactly once.
func TestMapNoDoubleWrite(t *testing.T) {
	const n = 2000
	writes := make([]atomic.Int32, n)
	_, err := Map(n, Options{Workers: 8}, func(i int) (int, error) {
		writes[i].Add(1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range writes {
		if c := writes[i].Load(); c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

// TestMapFirstErrorWins checks that the reported error is always the
// lowest-numbered failing task's — the error a serial loop would have
// returned — regardless of completion order.
func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(64, Options{Workers: 8}, func(i int) (int, error) {
			if i >= 17 {
				return 0, fmt.Errorf("task-%d: %w", i, boom)
			}
			return i, nil
		})
		if err == nil {
			t.Fatal("error swallowed")
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("error is %T, want *TaskError", err)
		}
		if te.Task != 17 {
			t.Fatalf("trial %d: reported task %d, want 17 (serial first failure)", trial, te.Task)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("unwrap lost the cause: %v", err)
		}
	}
}

// TestMapCancelsRemaining verifies that after a failure the pool stops
// claiming work: with W workers at most W tasks past the failing one
// may already be in flight, so a failing task near the front must leave
// most of the task list untouched.
func TestMapCancelsRemaining(t *testing.T) {
	const n, workers = 10_000, 4
	var ran atomic.Int64
	err := Run(n, Options{Workers: workers}, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got > n/2 {
		t.Fatalf("%d of %d tasks ran after an index-0 failure; cancellation is not working", got, n)
	}
}

// TestMapPanicCapture: a panicking task must surface as *PanicError on
// the right task index, not kill the process.
func TestMapPanicCapture(t *testing.T) {
	_, err := Map(32, Options{Workers: 8}, func(i int) (int, error) {
		if i == 5 {
			panic("bad model")
		}
		return i, nil
	})
	var te *TaskError
	if !errors.As(err, &te) || te.Task != 5 {
		t.Fatalf("err = %v, want task 5", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not captured as *PanicError: %v", err)
	}
	if pe.Value != "bad model" || len(pe.Stack) == 0 {
		t.Fatalf("panic payload lost: %+v", pe)
	}
}

// TestMapErrorAndPanicRace mixes erroring, panicking, and healthy
// tasks under -race; the winner must still be the lowest failing index.
func TestMapErrorAndPanicRace(t *testing.T) {
	_, err := Map(256, Options{Workers: 16}, func(i int) (int, error) {
		switch {
		case i == 31:
			return 0, errors.New("error task")
		case i > 31 && i%7 == 0:
			panic(i)
		}
		return i, nil
	})
	var te *TaskError
	if !errors.As(err, &te) || te.Task != 31 {
		t.Fatalf("err = %v, want the task-31 error", err)
	}
}

func TestTaskSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for task := 0; task < 1000; task++ {
		s := TaskSeed(42, task)
		if s2 := TaskSeed(42, task); s2 != s {
			t.Fatalf("TaskSeed not a pure function: %d vs %d", s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between tasks %d and %d", prev, task)
		}
		seen[s] = task
	}
	if TaskSeed(1, 0) == TaskSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
	if TaskSeed(0, 0) == TaskSeed(0, 1) {
		t.Fatal("task index ignored")
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	if got := (Options{}).workers(1 << 20); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: 8}).workers(3); got != 3 {
		t.Fatalf("workers not clamped to task count: %d", got)
	}
	if got := (Options{Workers: -1}).workers(2); got < 1 {
		t.Fatalf("workers fell below 1: %d", got)
	}
}

func TestRunPropagatesSuccess(t *testing.T) {
	var sum atomic.Int64
	if err := Run(100, Options{Workers: 4}, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// TestPoolUtilizationPerFanOut: the utilization gauge describes the
// last fan-out alone. A long fan-out followed by a short one on the
// same registry must not charge the first one's task time to the
// second one's wall time, so the gauge stays in (0, 1].
func TestPoolUtilizationPerFanOut(t *testing.T) {
	reg := obsv.NewRegistry()
	opts := Options{Workers: 4, Metrics: reg}
	for _, d := range []time.Duration{20 * time.Millisecond, time.Millisecond} {
		if err := Run(4, opts, func(int) error {
			time.Sleep(d)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if u := snap.Gauges["parallel_pool_utilization"]; u <= 0 || u > 1 {
		t.Errorf("parallel_pool_utilization = %g, want in (0, 1]", u)
	}
	if n := snap.Timers["parallel_task"].Count; n != 8 {
		t.Errorf("parallel_task count = %d, want 8", n)
	}
	if n := snap.Timers["parallel_map"].Count; n != 2 {
		t.Errorf("parallel_map count = %d, want 2", n)
	}
}
