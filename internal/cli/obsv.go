package cli

import (
	"flag"
	"os"
	"time"

	"mpgraph/internal/obsv"
	"mpgraph/internal/timeline"
)

// ObsvFlags collects the shared observability flags of the tools:
// -metrics-out (JSON metrics snapshot at exit) and -selftrace (engine
// self-profiling spans as a Perfetto timeline at exit).
type ObsvFlags struct {
	// MetricsOut is the snapshot destination path ("" = don't write).
	MetricsOut string
	// SelfTrace is the engine span timeline path ("" = don't record).
	SelfTrace string

	reg   *obsv.Registry
	start time.Time
}

// Register adds -metrics-out and -selftrace to fs.
func (o *ObsvFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot (counters, gauges, phase timings) to this path at exit")
	fs.StringVar(&o.SelfTrace, "selftrace", "", "record engine self-profiling spans (one per timed boundary, named after its phase timer: core_compile, core_replay_compiled, sweep_point, ...) and write them as Perfetto trace-event JSON to this path at exit")
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
