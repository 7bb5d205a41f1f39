package main

import (
	"bytes"
	"testing"
)

// TestRunReplays runs the example twice: at its fixed seed it must
// succeed and print the same bytes both times.
func TestRunReplays(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("replay printed different output:\n%s\n---\n%s", first.String(), second.String())
	}
}
