package core

import (
	"testing"
	"time"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestIngestAllocFree is the dynamic half of the //xlf:hotpath contract
// on Ingest: once a device's window holds maxHist signals, a signal that
// raises no alert evicts into the ring and the max-deques and allocates
// nothing.
func TestIngestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := DefaultConfig()
	cfg.Window = time.Hour
	c := New(cfg, Containment{})
	i := 0
	ingest := func() {
		// 0.3 on all three layers corroborates to 0.45: below the threshold.
		if a := c.Ingest(Signal{Time: time.Duration(i) * time.Millisecond, Layer: layerNames[i%numLayers],
			Source: "test", DeviceID: "cam-1", Kind: "noise", Score: 0.3}); a != nil {
			t.Fatalf("signal %d alerted: %s", i, a)
		}
		i++
	}
	for i < 2*maxHist {
		ingest()
	}
	if n := testing.AllocsPerRun(1000, ingest); n != 0 {
		t.Errorf("Ingest allocates %.1f per signal at the maxHist cap, want 0", n)
	}
}

// TestTokenLifetimeForAllocFree pins the Core's read path for the token
// policy: it reads the device's alert times in place.
func TestTokenLifetimeForAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := DefaultConfig()
	cfg.Cooldown = time.Millisecond
	c := New(cfg, Containment{})
	for i := 0; i < 100; i++ {
		c.Ingest(Signal{Time: time.Duration(i) * time.Second, Layer: Network, DeviceID: "cam-1", Score: 0.7})
	}
	var got time.Duration
	if n := testing.AllocsPerRun(1000, func() {
		got = c.TokenLifetimeFor("cam-1", time.Hour, 100*time.Second)
	}); n != 0 {
		t.Errorf("TokenLifetimeFor allocates %.1f per call, want 0", n)
	}
	if got != time.Hour/16 {
		t.Errorf("lifetime = %s, want %s", got, time.Hour/16)
	}
}
