package lwc

import "testing"

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestSum64AllocFree is the dynamic half of the //xlf:hotpath contract
// on Sum64: hashing a firmware image keeps the PRESENT key schedule and
// the padding block on the stack.
func TestSum64AllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	image := make([]byte, 4096+5)
	var sink uint64
	if n := testing.AllocsPerRun(50, func() { sink ^= Sum64(image) }); n != 0 {
		t.Errorf("Sum64 allocates %.1f times per call, want 0", n)
	}
	_ = sink
}
