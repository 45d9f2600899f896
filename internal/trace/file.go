package trace

import (
	"fmt"
	"os"
	"path/filepath"
)

// FileName returns the canonical per-rank trace file name inside a
// trace directory: "rank-<NNNN>.mpgt".
func FileName(rank int) string { return fmt.Sprintf("rank-%04d.mpgt", rank) }

// CreateFileWriter creates (truncating) the trace file for h.Rank in
// dir and returns a buffered Writer over it plus a close function that
// finalizes both the stream and the file.
func CreateFileWriter(dir string, h Header, capacity int) (*Writer, func() error, error) {
	f, err := os.Create(filepath.Join(dir, FileName(h.Rank)))
	if err != nil {
		return nil, nil, err
	}
	w, err := NewWriter(f, h, capacity)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	closeAll := func() error {
		werr := w.Close()
		ferr := f.Close()
		if werr != nil {
			return werr
		}
		return ferr
	}
	return w, closeAll, nil
}

// OpenDir opens a directory of per-rank trace files as a Set. The
// world size is discovered by probing rank files from 0 upward. The
// returned close function releases all file handles.
func OpenDir(dir string) (*Set, func() error, error) {
	var files []*os.File
	closeAll := func() error {
		var first error
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var readers []Reader
	for rank := 0; ; rank++ {
		path := filepath.Join(dir, FileName(rank))
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				break
			}
			closeAll() //nolint:errcheck
			return nil, nil, err
		}
		files = append(files, f)
		d, err := NewDecoder(f)
		if err != nil {
			closeAll() //nolint:errcheck
			return nil, nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		readers = append(readers, d)
	}
	if len(readers) == 0 {
		return nil, nil, fmt.Errorf("trace: no rank files found in %s", dir)
	}
	set, err := NewSet(readers)
	if err != nil {
		closeAll() //nolint:errcheck
		return nil, nil, err
	}
	return set, closeAll, nil
}

// SetFromMem wraps in-memory traces as a Set, resetting each so reads
// start from the beginning.
func SetFromMem(traces []*MemTrace) (*Set, error) {
	readers := make([]Reader, len(traces))
	for i, m := range traces {
		m.Reset()
		readers[i] = m
	}
	return NewSet(readers)
}
