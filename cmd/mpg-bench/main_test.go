package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mpgraph/internal/microbench"
)

func TestBenchWritesSignature(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sig.json")
	err := run([]string{"-ranks", "2", "-machine-noise", "exponential:100",
		"-out", out, "-label", "unit",
		"-ftq-samples", "50", "-pingpong-samples", "20", "-bandwidth-samples", "3"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := microbench.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Platform != "unit" || len(sig.NoisePerQuantum) != 50 {
		t.Fatalf("signature = %+v", sig)
	}
	if sig.NoiseSummary().Mean <= 0 {
		t.Fatal("no noise measured")
	}
}

func TestBenchRequiresOut(t *testing.T) {
	if err := run([]string{"-ranks", "2"}); err == nil {
		t.Fatal("missing -out accepted")
	}
}

func TestBenchRejectsBadMachine(t *testing.T) {
	if err := run([]string{"-machine-latency", "x", "-out", "sig.json"}); err == nil {
		t.Fatal("bad machine spec accepted")
	}
}

// TestBenchRejectsNonPositiveProbes checks that a zero or negative
// probe size or sample count is an error naming the flag, not a silent
// fallback to the default (the signature must record what was asked).
func TestBenchRejectsNonPositiveProbes(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"ftq-quantum", "0"},
		{"ftq-samples", "0"},
		{"pingpong-samples", "-1"},
		{"pingpong-bytes", "0"},
		{"bandwidth-bytes", "-8"},
		{"bandwidth-samples", "0"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			args := []string{"-ranks", "2", "-out", filepath.Join(t.TempDir(), "sig.json"),
				"-ftq-samples", "5", "-pingpong-samples", "5", "-bandwidth-samples", "2",
				"-" + tc.flag, tc.value}
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
				t.Fatalf("-%s %s: err = %v, want an error naming the flag", tc.flag, tc.value, err)
			}
		})
	}
}
