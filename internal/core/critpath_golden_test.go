package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mpgraph/internal/dist"
	"mpgraph/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the critical-path golden")

// writeCritPath renders a critical path with every float in shortest
// round-trip form, so that a one-bit drift changes the text.
func writeCritPath(b *bytes.Buffer, cp *CriticalPath) {
	fmt.Fprintf(b, "sink %s delay=%v offset=%v\n", cp.Sink, cp.SinkDelay, cp.SinkOffset)
	fmt.Fprintf(b, "kind local=%v message=%v collective=%v\n",
		cp.KindBlame[EdgeLocal], cp.KindBlame[EdgeMessage], cp.KindBlame[EdgeCollective])
	for r, v := range cp.RankBlame {
		fmt.Fprintf(b, "rank %d %v\n", r, v)
	}
	for _, s := range cp.Steps {
		fmt.Fprintf(b, "step %s %s delta=%v delay=%v\n", s.Node, s.Kind, s.Delta, s.Delay)
	}
}

// TestCritPathGolden pins the critical paths of three workloads under
// six models to a golden file, byte for byte, and requires the
// streaming analyzer and the compiled replay to agree on each one.
// Regenerate with -update only when a path change is intended.
func TestCritPathGolden(t *testing.T) {
	// The models span the propagation and collective modes and the
	// sampler paths that can move a merge decision: negative support
	// with order clamping, quantized gap noise, and a per-rank noise
	// override.
	noise := dist.Exponential{MeanValue: 400}
	lat := dist.Exponential{MeanValue: 900}
	pb := dist.Constant{C: 0.25}
	straggler := make([]dist.Distribution, 8)
	straggler[5] = dist.Exponential{MeanValue: 5000}
	models := []struct {
		name  string
		model Model
	}{
		{"additive-approx", Model{Seed: 3, OSNoise: noise, MsgLatency: lat, PerByte: pb}},
		{"additive-explicit-collbytes", Model{Seed: 4, OSNoise: noise, MsgLatency: lat, PerByte: pb,
			Collectives: CollectiveExplicit, CollectiveBytes: true}},
		{"anchored", Model{Seed: 5, OSNoise: noise, MsgLatency: lat, PerByte: pb,
			Propagation: PropagationAnchored}},
		{"negative-normal", Model{Seed: 6, OSNoise: dist.Normal{Mu: 0, Sigma: 600},
			MsgLatency: dist.Normal{Mu: 100, Sigma: 800}, AllowNegative: true}},
		{"noise-quantum", Model{Seed: 7, OSNoise: noise, MsgLatency: lat, NoiseQuantum: 20_000}},
		{"rank-straggler", Model{Seed: 8, OSNoise: noise, MsgLatency: lat, RankOSNoise: straggler}},
	}
	wls := []struct {
		name string
		opts workloads.Options
	}{
		{"stencil1d", workloads.Options{Iterations: 4, CollEvery: 2}},
		{"cg", workloads.Options{Iterations: 3}},
		{"tokenring", workloads.Options{Iterations: 3}},
	}
	var b bytes.Buffer
	for _, wl := range wls {
		snap := snapWorkload(t, wl.name, 8, wl.opts)
		c, err := Compile(snap.Set(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models {
			name := wl.name + "/" + m.name
			res, err := Analyze(snap.Set(), &m.model, Options{RecordCritPath: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rep, err := ReplayCompiled(c, &m.model, Options{RecordCritPath: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(res.CritPath, rep.CritPath) {
				t.Errorf("%s: compiled replay's critical path differs from the streaming analyzer's", name)
			}
			fmt.Fprintf(&b, "== %s\n", name)
			writeCritPath(&b, res.CritPath)
		}
	}
	golden := filepath.Join("testdata", "critpath.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("critical paths deviate from %s (regenerate with -update only for an intended change)", golden)
	}
}
