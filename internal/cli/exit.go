package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// UsageError is a command-line parse error. The FlagSet has already
// printed it with the usage, so ExitCode does not print it again.
type UsageError struct{ Err error }

func (e UsageError) Error() string { return e.Err.Error() }
func (e UsageError) Unwrap() error { return e.Err }

// Parse parses args with fs and returns a parse error as a UsageError.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return UsageError{err}
	}
	return nil
}

// ExitCode maps a tool's run outcome to its process exit status: 0 for
// a finished run or -h, 2 for a flag error, and 1, with one
// "<tool>: <error>" line on stderr, for a failed run.
func ExitCode(tool string, err error, stderr io.Writer) int {
	var ue UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 1
}
