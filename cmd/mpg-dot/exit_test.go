package main

import (
	"bytes"
	"testing"

	"mpgraph/internal/cli"
)

// TestExitCodes: -h exits 0 and an undefined flag exits 2, and neither
// adds a "mpg-dot:" line to the FlagSet's own output.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want int
	}{{"-h", 0}, {"-no-such-flag", 2}} {
		var stderr bytes.Buffer
		if got := cli.ExitCode("mpg-dot", run([]string{c.arg}), &stderr); got != c.want || stderr.Len() != 0 {
			t.Errorf("%s: exit %d with %q on stderr, want %d and nothing", c.arg, got, stderr.String(), c.want)
		}
	}
}
