package xauth

import (
	"testing"
	"time"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestVerifyAllocFree: Verify resets the Signer's keyed HMAC, builds the
// MAC input in the Signer's buffer and sums into its array.
func TestVerifyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, err := NewSigner([]byte("alloc-signing-key"))
	if err != nil {
		t.Fatal(err)
	}
	tok := s.Issue("alice", "bulb-1", Advanced, true, time.Minute, time.Hour)
	if n := testing.AllocsPerRun(100, func() {
		if err := s.Verify(tok, 2*time.Minute, "bulb-1"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Verify allocates %.1f times, want 0", n)
	}
}
