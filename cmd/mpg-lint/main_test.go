package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestListNamesFiveAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "concdiscipline detreach floateq hotpathprop rngpurity"; got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
}

func TestRejectsRemovedAnalyzersAndFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-analyzers", "nondet"},
		{"-analyzers", "hotpathalloc"},
		{"-baseline", "x"},
		{"-write-baseline"},
		{"-json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
