// Package parallel is the replay fan-out engine: it runs N independent
// tasks (typically one graph replay per task — a sweep point, a Monte
// Carlo trial, an experiment grid cell) across a bounded worker pool
// while preserving the determinism contract the analyzer is built on.
//
// Replays over a fixed trace are embarrassingly parallel: each task
// re-traces (or re-reads a snapshot of) the workload and analyzes it
// under its own Model, so no mutable state crosses task boundaries.
// The engine adds the three properties parallel studies need on top of
// raw goroutines:
//
//   - Deterministic seeding. Per-task randomness must never depend on
//     scheduling order, so tasks derive their seeds with TaskSeed
//     (seed = hash(baseSeed, taskIndex)) instead of sharing an RNG.
//   - Ordered collection. Results land at their task index regardless
//     of completion order, so workers=1 and workers=8 produce
//     byte-identical output.
//   - Failure isolation. A task that returns an error or panics does
//     not kill the process or the other in-flight tasks: remaining
//     unstarted tasks are cancelled, in-flight tasks finish, and the
//     error reported is always the one from the lowest-numbered
//     failing task — exactly the error a serial loop would have
//     returned.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpgraph/internal/obsv"
)

// Options tunes a fan-out.
type Options struct {
	// Workers bounds the worker pool. Zero or negative means
	// runtime.GOMAXPROCS(0). The pool never exceeds the task count.
	Workers int
	// Metrics, when non-nil, receives pool observability: a
	// parallel_map timer per fan-out, a parallel_task timer per task
	// (its count is the task count), a failures counter, the effective
	// pool size, and a parallel_pool_utilization gauge: the last
	// fan-out's own task time / (workers × its wall time). Metrics are
	// out-of-band: they never influence scheduling or results.
	Metrics *obsv.Registry
}

// workers resolves the effective pool size for n tasks.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// TaskSeed derives the RNG seed for one task from a base seed and the
// task index. The derivation is a pure hash (splitmix64 over both
// words), so per-task randomness depends only on (base, task) — never
// on worker scheduling — and distinct tasks receive decorrelated
// streams even for adjacent indices.
func TaskSeed(base uint64, task int) uint64 {
	x := base ^ 0x9e3779b97f4a7c15
	for _, w := range [2]uint64{base, uint64(task)} {
		x += w + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// TaskError wraps an error returned by one task with its index.
type TaskError struct {
	// Task is the failing task's index.
	Task int
	// Err is the task's error (a *PanicError for captured panics).
	Err error
}

// Error implements error.
func (e *TaskError) Error() string { return fmt.Sprintf("task %d: %v", e.Task, e.Err) }

// Unwrap exposes the underlying task error.
func (e *TaskError) Unwrap() error { return e.Err }

// UnwrapTask strips Map's task wrapper, so callers report the same
// error text a serial loop over the tasks produced. Any other error is
// returned as is.
func UnwrapTask(err error) error {
	if te, ok := err.(*TaskError); ok {
		return te.Err
	}
	return err
}

// PanicError is a panic captured inside a task, converted to an error
// so one bad model cannot kill a 10k-trial study.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Map runs fn(0..n-1) across the worker pool and returns the results
// in task order. On failure it returns nil and a *TaskError wrapping
// the error (or captured panic) of the lowest-numbered failing task —
// the same error a serial loop over the tasks would have surfaced.
// Tasks not yet started when the first failure is observed are
// cancelled; tasks already in flight run to completion.
func Map[T any](n int, opts Options, fn func(task int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)

	// Instrument handles are nil when no registry is attached; every
	// method on them is then a no-op, so the hot path never branches.
	m := opts.Metrics
	// Tasks feed a plain timer rather than Registry.Time: a span per
	// task would duplicate the caller's own per-task span and flood the
	// span ring on large fan-outs.
	taskT := m.Timer("parallel_task")
	nFails := m.Counter("parallel_task_failures_total")
	mapT := m.Time("parallel_map")

	var busy atomic.Int64  // this fan-out's summed task time, ns
	var next atomic.Int64  // next unclaimed task index
	var failed atomic.Bool // set on first observed failure
	var wg sync.WaitGroup

	// Every claimed task runs to completion; the cancellation check
	// precedes the claim. Tasks are claimed in index order, so if any
	// task fails, the lowest-numbered failing task was claimed before
	// the failure flag could have been set (only a lower-numbered
	// failure could set it first, contradicting minimality) and its
	// error is always recorded — the reported error is deterministic.
	worker := func() {
		defer wg.Done()
		for {
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			//mpg:lint-ignore detreach out-of-band pool timing (DESIGN §7): wall time feeds metrics only, never task results or their order
			t0 := time.Now()
			err := runTask(i, fn, &results[i])
			//mpg:lint-ignore detreach out-of-band pool timing (DESIGN §7): wall time feeds metrics only, never task results or their order
			d := time.Since(t0)
			taskT.Observe(d)
			busy.Add(int64(d))
			if err != nil {
				nFails.Inc()
				errs[i] = err
				failed.Store(true)
				return
			}
		}
	}
	w := opts.workers(n)
	m.Gauge("parallel_pool_workers").SetMax(float64(w))
	wg.Add(w)
	for k := 0; k < w; k++ {
		go worker()
	}
	wg.Wait()
	if wall := mapT.End(); wall > 0 {
		m.Gauge("parallel_pool_utilization").Set(float64(busy.Load()) / (float64(w) * float64(wall)))
	}

	if failed.Load() {
		for i, err := range errs {
			if err != nil {
				return nil, &TaskError{Task: i, Err: err}
			}
		}
	}
	return results, nil
}

// runTask executes one task with panic capture, writing its result
// through out (each result slot is written at most once, by the single
// worker that claimed the index).
func runTask[T any](i int, fn func(task int) (T, error), out *T) (err error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 8192)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: v, Stack: buf}
		}
	}()
	v, err := fn(i)
	if err != nil {
		return err
	}
	*out = v
	return nil
}

// Run is Map without per-task results: it runs fn over 0..n-1 and
// returns the first (lowest-index) failure, if any.
func Run(n int, opts Options, fn func(task int) error) error {
	_, err := Map(n, opts, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
