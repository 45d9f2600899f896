package cli

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers the profiling handlers on DefaultServeMux
	"os"
	"time"

	"mpgraph/internal/obsv"
	"mpgraph/internal/timeline"
)

// ObsvFlags collects the shared observability flags of the tools:
// -metrics-out (JSON metrics snapshot at exit), -selftrace (engine
// self-profiling spans as a Perfetto timeline at exit) and, for
// long-running tools, -pprof (live profiling endpoint).
type ObsvFlags struct {
	// MetricsOut is the snapshot destination path ("" = don't write).
	MetricsOut string
	// SelfTrace is the engine span timeline path ("" = don't record).
	SelfTrace string
	// Pprof is the profiling listen address ("" = don't serve).
	Pprof string

	reg   *obsv.Registry
	start time.Time
}

// Register adds -metrics-out and -selftrace to fs; withPprof also adds
// -pprof.
func (o *ObsvFlags) Register(fs *flag.FlagSet, withPprof bool) {
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, gauges, phase timings) to this path at exit")
	fs.StringVar(&o.SelfTrace, "selftrace", "", "record engine self-profiling spans (one per timed boundary, named after its phase timer: core_compile, core_replay_compiled, sweep_point, ...) and write them as Perfetto trace-event JSON to this path at exit")
	if withPprof {
		fs.StringVar(&o.Pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	}
}

// Registry returns the tool's metrics registry, creating it on first
// use and marking the run's start time. Span recording is enabled on
// the registry when -selftrace was given, so any engine code handed
// this registry contributes spans for free.
func (o *ObsvFlags) Registry() *obsv.Registry {
	if o.reg == nil {
		o.reg = obsv.NewRegistry()
		o.start = time.Now()
		if o.SelfTrace != "" {
			o.reg.EnableSpans()
		}
	}
	return o.reg
}

// DurationMS returns the wall time since the registry was created.
func (o *ObsvFlags) DurationMS() float64 {
	if o.reg == nil {
		return 0
	}
	return float64(time.Since(o.start)) / float64(time.Millisecond)
}

// Start launches the pprof server when -pprof was given. Errors (e.g.
// an occupied port) are reported to stderr, never fatal: profiling is
// a diagnostic aid, not a run prerequisite.
func (o *ObsvFlags) Start(stderr io.Writer) {
	if o.Pprof == "" {
		return
	}
	addr := o.Pprof
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(stderr, "pprof:", err)
		}
	}()
}

// Flush writes the metrics snapshot when -metrics-out was given and
// the self-trace timeline when -selftrace was given.
func (o *ObsvFlags) Flush() error {
	if o.MetricsOut != "" {
		if err := obsv.WriteJSONFile(o.MetricsOut, o.Registry().Snapshot()); err != nil {
			return err
		}
	}
	if o.SelfTrace != "" {
		f, err := os.Create(o.SelfTrace)
		if err != nil {
			return err
		}
		if err := timeline.WriteSpansJSON(f, o.Registry().Spans().Snapshot()); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
