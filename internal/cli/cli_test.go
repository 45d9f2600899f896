package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"testing"

	"mpgraph/internal/core"
)

func parseMachine(t *testing.T, args ...string) (*MachineFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var mf MachineFlags
	mf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, err := mf.Build()
	return &mf, err
}

func TestMachineFlagsDefaults(t *testing.T) {
	mf, err := parseMachine(t)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := mf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NRanks != 8 || cfg.BytesPerCycle != 1 || cfg.SendOverhead != 100 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Noise != nil || cfg.Latency != nil {
		t.Fatal("unset distributions should be nil (machine applies its own defaults)")
	}
}

func TestMachineFlagsFull(t *testing.T) {
	mf, err := parseMachine(t,
		"-ranks", "32", "-seed", "9",
		"-machine-noise", "exponential:250",
		"-machine-latency", "uniform:500,1500",
		"-machine-bandwidth", "4",
		"-eager-limit", "4096",
		"-nic-contention",
		"-clock-offset", "uniform:0,1000000",
		"-clock-drift", "normal:0,100",
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := mf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NRanks != 32 || cfg.Seed != 9 || !cfg.NICContention || cfg.EagerLimit != 4096 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Noise == nil || cfg.Latency == nil || cfg.ClockOffset == nil || cfg.ClockDriftPPM == nil {
		t.Fatal("distributions not parsed")
	}
}

func TestMachineFlagsBadSpec(t *testing.T) {
	if _, err := parseMachine(t, "-machine-noise", "bogus:1"); err == nil {
		t.Fatal("bad noise spec accepted")
	}
	if _, err := parseMachine(t, "-clock-drift", "??"); err == nil {
		t.Fatal("bad drift spec accepted")
	}
}

func parseModel(t *testing.T, args ...string) (*core.Model, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var mf ModelFlags
	mf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return mf.Build()
}

func TestModelFlagsDefaults(t *testing.T) {
	m, err := parseModel(t)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Zero() {
		t.Fatal("default model should inject nothing")
	}
	if m.Propagation != core.PropagationAdditive || m.Collectives != core.CollectiveApprox {
		t.Fatalf("default modes wrong: %+v", m)
	}
}

func TestModelFlagsModes(t *testing.T) {
	m, err := parseModel(t,
		"-os-noise", "constant:10",
		"-latency", "constant:20",
		"-per-byte", "constant:0.5",
		"-propagation", "anchored",
		"-collectives", "explicit",
		"-collective-bytes",
		"-allow-negative",
		"-noise-quantum", "1000",
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Propagation != core.PropagationAnchored || m.Collectives != core.CollectiveExplicit {
		t.Fatalf("modes: %+v", m)
	}
	if !m.CollectiveBytes || !m.AllowNegative || m.NoiseQuantum != 1000 {
		t.Fatalf("flags lost: %+v", m)
	}
	if m.OSNoise == nil || m.MsgLatency == nil || m.PerByte == nil {
		t.Fatal("distributions not set")
	}
}

func TestModelFlagsBadModes(t *testing.T) {
	if _, err := parseModel(t, "-propagation", "sideways"); err == nil {
		t.Fatal("bad propagation accepted")
	}
	if _, err := parseModel(t, "-collectives", "magic"); err == nil {
		t.Fatal("bad collectives accepted")
	}
	if _, err := parseModel(t, "-per-byte", "nope"); err == nil {
		t.Fatal("bad per-byte spec accepted")
	}
}

func TestWorkloadFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var wf WorkloadFlags
	wf.Register(fs)
	if err := fs.Parse([]string{"-workload", "cg", "-iters", "7", "-bytes", "512",
		"-tasks", "3", "-workload-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	o := wf.Options()
	if wf.Name != "cg" || o.Iterations != 7 || o.Bytes != 512 || o.Tasks != 3 || o.Seed != 5 {
		t.Fatalf("options = %+v name=%s", o, wf.Name)
	}
}

func TestMachineFlagsTopology(t *testing.T) {
	mf, err := parseMachine(t, "-topology", "ring")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := mf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.String() != "ring" {
		t.Fatalf("topology = %v", cfg.Topology)
	}
	if _, err := parseMachine(t, "-topology", "donut"); err == nil {
		t.Fatal("bad topology accepted")
	}
}

// TestExitCode pins the exit status the tools other than mpg-lint and
// mpg-perf derive from a run: 0 for a finished run or -h, 2 for a flag
// error (which the FlagSet has printed), and 1 with one "<tool>:" line
// for a failed run.
func TestExitCode(t *testing.T) {
	fs := flag.NewFlagSet("mpg-x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, c := range []struct {
		err    error
		want   int
		stderr string
	}{
		{nil, 0, ""},
		{Parse(fs, []string{"-h"}), 0, ""},
		{Parse(fs, []string{"-no-such-flag"}), 2, ""},
		{errors.New("no traces"), 1, "mpg-x: no traces\n"},
	} {
		var stderr bytes.Buffer
		if got := ExitCode("mpg-x", c.err, &stderr); got != c.want || stderr.String() != c.stderr {
			t.Errorf("%v: exit %d with %q on stderr, want %d and %q", c.err, got, stderr.String(), c.want, c.stderr)
		}
	}
}
