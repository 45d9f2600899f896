package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpgraph/internal/core"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFull(t *testing.T) {
	path := writeScenario(t, `{
	  "name": "noisy",
	  "os_noise": "exponential:200",
	  "rank_os_noise": {"5": "constant:50000", "2": "constant:100"},
	  "noise_quantum": 100000,
	  "latency": "spike:0.01,constant:5000",
	  "per_byte": "constant:0.01",
	  "propagation": "anchored",
	  "collectives": "explicit",
	  "collective_bytes": true,
	  "allow_negative": true,
	  "seed": 7
	}`)
	m, f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "noisy" || m.Seed != 7 || m.NoiseQuantum != 100000 {
		t.Fatalf("scenario = %+v model = %+v", f, m)
	}
	if m.OSNoise == nil || m.MsgLatency == nil || m.PerByte == nil {
		t.Fatal("distributions missing")
	}
	if m.Propagation != core.PropagationAnchored || m.Collectives != core.CollectiveExplicit {
		t.Fatalf("modes: %+v", m)
	}
	if !m.CollectiveBytes || !m.AllowNegative {
		t.Fatal("booleans lost")
	}
	if len(m.RankOSNoise) != 6 || m.RankOSNoise[5] == nil || m.RankOSNoise[2] == nil {
		t.Fatalf("rank noise: %v", m.RankOSNoise)
	}
	if m.RankOSNoise[0] != nil || m.RankOSNoise[3] != nil {
		t.Fatal("unspecified ranks should be nil")
	}
}

func TestLoadMinimal(t *testing.T) {
	m, _, err := Load(writeScenario(t, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Zero() {
		t.Fatal("empty scenario should inject nothing")
	}
	if m.Propagation != core.PropagationAdditive || m.Collectives != core.CollectiveApprox {
		t.Fatal("defaults wrong")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"bad dist":        `{"os_noise": "wat"}`,
		"bad latency":     `{"latency": "x:y"}`,
		"bad per byte":    `{"per_byte": "?"}`,
		"bad rank key":    `{"rank_os_noise": {"x": "constant:1"}}`,
		"negative rank":   `{"rank_os_noise": {"-1": "constant:1"}}`,
		"bad rank dist":   `{"rank_os_noise": {"0": "zzz"}}`,
		"bad propagation": `{"propagation": "diagonal"}`,
		"bad collectives": `{"collectives": "psychic"}`,
	}
	for name, body := range cases {
		if _, _, err := Load(writeScenario(t, body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestModelErrorIgnoresMapOrder: with several bad rank keys the error
// names the first in sorted order, every time.
func TestModelErrorIgnoresMapOrder(t *testing.T) {
	f := &File{RankOSNoise: map[string]string{"x": "constant:1", "y": "constant:1", "z": "bogus"}}
	for i := 0; i < 50; i++ {
		_, err := f.Model()
		if err == nil || err.Error() != `rank_os_noise: bad rank key "x"` {
			t.Fatalf("call %d: got %v, want the error for key \"x\"", i, err)
		}
	}
}

// TestModelRejectsImplausibleRankKey: a rank key sizes RankOSNoise,
// so a one-line file must not be able to ask for gigabytes.
func TestModelRejectsImplausibleRankKey(t *testing.T) {
	f := &File{RankOSNoise: map[string]string{"1048576": "constant:1"}}
	m, err := f.Model()
	if err == nil {
		t.Fatalf("rank key 1<<20 accepted; RankOSNoise has %d entries", len(m.RankOSNoise))
	}
	if !strings.Contains(err.Error(), "implausible rank key") {
		t.Fatalf("error %q does not name the implausible rank key", err)
	}
	f.RankOSNoise = map[string]string{"2000000000": "constant:1"}
	if _, err := f.Model(); err == nil || !strings.Contains(err.Error(), "implausible rank key") {
		t.Fatalf("rank key 2000000000: got %v", err)
	}
}

func TestSaveRoundTrip(t *testing.T) {
	f := &File{
		Name:    "rt",
		OSNoise: "constant:10",
		Seed:    3,
	}
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	m, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.OSNoise != "constant:10" || m.Seed != 3 {
		t.Fatalf("round trip: %+v", got)
	}
}
