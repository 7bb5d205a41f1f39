package channel

import (
	"bytes"
	"testing"

	"xlf/internal/lwc"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestSealOpenAllocs holds Seal into a reused buffer to no allocation,
// and Seal(nil, ...) and Open to one each, the message they return: the
// CMAC is the session's, keyed once, and the counter, keystream and tag
// blocks are session scratch.
func TestSealOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := lwc.NewRegistry()
	for _, name := range []string{"PRESENT", "LEA", "HIGHT", "AES"} {
		info, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("registry lost %s", name)
		}
		key := bytes.Repeat([]byte{5}, info.DefaultKeyBits()/8)
		a, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		pt := make([]byte, 64)
		var sealed []byte
		if n := testing.AllocsPerRun(100, func() {
			if sealed, err = a.Seal(nil, pt); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Seal(nil) allocates %.1f times, want 1", name, n)
		}
		buf := make([]byte, 0, len(sealed))
		if n := testing.AllocsPerRun(100, func() {
			if buf, err = a.Seal(buf[:0], pt); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Seal into a reused buffer allocates %.1f times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			b.recvHigh = 0
			if _, err := b.Open(sealed); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s: Open allocates %.1f times, want 1", name, n)
		}
	}
}
