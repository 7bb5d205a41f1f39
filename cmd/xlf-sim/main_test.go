package main

import (
	"bytes"
	"io"
	"testing"
)

// TestRunModes runs each mode twice: at a fixed seed it must succeed and
// print the same bytes both times, alert times included.
func TestRunModes(t *testing.T) {
	if got := run([]string{"-bogus"}, io.Discard); got != 2 {
		t.Errorf("bad flag exit = %d, want 2", got)
	}
	for _, args := range [][]string{
		{"-minutes", "6"},
		{"-minutes", "6", "-quiet"},
		{"-minutes", "6", "-unprotected"},
	} {
		var first, second bytes.Buffer
		if got := run(args, &first); got != 0 {
			t.Fatalf("run(%v) = %d, want 0", args, got)
		}
		run(args, &second)
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("run(%v) printed different output on replay:\n%s\n---\n%s", args, first.String(), second.String())
		}
	}
}
