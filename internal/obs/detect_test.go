package obs

import (
	"testing"
	"time"
)

// TestDetectionLatency pins the basic inject-observe matching: latency
// lands in the class histogram and the counters move.
func TestDetectionLatency(t *testing.T) {
	reg := NewRegistry()
	d := NewDetectionTracker(reg, time.Minute)
	d.Inject(10*time.Second, "mirai", "cam-1")
	if !d.Observe(12*time.Second, "cam-1") {
		t.Fatal("observe did not match the pending injection")
	}
	if d.Observe(13*time.Second, "cam-1") {
		t.Error("second observe matched an already-cleared injection")
	}
	if d.Pending() != 0 {
		t.Errorf("pending = %d, want 0", d.Pending())
	}
	stats := d.Stats()
	if len(stats) != 1 || stats[0].Class != "mirai" || stats[0].Count != 1 {
		t.Fatalf("stats = %+v, want one mirai entry", stats)
	}
	// 2s lands in bucket [2^30, 2^31): the estimate is within 2x.
	if p50 := stats[0].P50; p50 < time.Second || p50 > 4*time.Second {
		t.Errorf("p50 = %s, want within 2x of 2s", p50)
	}
	if got := reg.Counter(DetectInjected).Value(); got != 1 {
		t.Errorf("injected counter = %d, want 1", got)
	}
	if got := reg.Counter(DetectDetected).Value(); got != 1 {
		t.Errorf("detected counter = %d, want 1", got)
	}
	if got := reg.Counter(DetectSLOBreach).Value(); got != 0 {
		t.Errorf("breach counter = %d, want 0 under a 1m SLO", got)
	}
}

// TestDetectionSLOBreach: latency above the SLO bumps the breach counter
// and fires the recorder's slo-breach trigger.
func TestDetectionSLOBreach(t *testing.T) {
	reg := NewRegistry()
	d := NewDetectionTracker(reg, time.Second)
	rec := NewFlightRecorder(4, 4)
	d.SetRecorder(rec)
	d.Inject(0, "exfil", "fridge-1")
	d.Observe(5*time.Second, "fridge-1")
	if got := reg.Counter(DetectSLOBreach).Value(); got != 1 {
		t.Errorf("breach counter = %d, want 1", got)
	}
	rec.Flush(6 * time.Second)
	dumps := rec.Dumps()
	if len(dumps) != 1 || len(dumps[0].Reasons) != 1 || dumps[0].Reasons[0] != "slo-breach" || dumps[0].Suppressed != 0 {
		t.Fatalf("dumps = %+v, want one slo-breach dump", dumps)
	}
}

// TestDetectionEarliestPendingWins: re-injecting an undetected device
// keeps the earliest timestamp, so the latency reading is conservative.
func TestDetectionEarliestPendingWins(t *testing.T) {
	reg := NewRegistry()
	d := NewDetectionTracker(reg, time.Hour)
	d.Inject(1*time.Second, "mirai", "cam-1")
	d.Inject(9*time.Second, "flood", "cam-1") // same victim, later attack
	d.Observe(11*time.Second, "cam-1")
	stats := d.Stats()
	if len(stats) != 1 || stats[0].Class != "mirai" {
		t.Fatalf("stats = %+v, want the earliest (mirai) injection matched", stats)
	}
	// Latency 10s, bucketed: within a factor of two.
	if p := stats[0].P50; p < 5*time.Second || p > 20*time.Second {
		t.Errorf("p50 = %s, want within 2x of 10s", p)
	}
	if got := reg.Counter(DetectInjected).Value(); got != 2 {
		t.Errorf("injected counter = %d, want 2 (both fires counted)", got)
	}
}

// TestDetectionStatsSorted: classes render in sorted order regardless of
// injection order.
func TestDetectionStatsSorted(t *testing.T) {
	d := NewDetectionTracker(nil, 0)
	d.Inject(0, "zeta", "d1")
	d.Inject(0, "alpha", "d2")
	d.Inject(0, "mid", "d3")
	d.Observe(1, "d1")
	d.Observe(1, "d2")
	d.Observe(1, "d3")
	stats := d.Stats()
	if len(stats) != 3 || stats[0].Class != "alpha" || stats[1].Class != "mid" || stats[2].Class != "zeta" {
		t.Fatalf("stats order = %+v, want alpha/mid/zeta", stats)
	}
	if d.SLO() != DefaultDetectionSLO {
		t.Errorf("SLO = %s, want default %s", d.SLO(), DefaultDetectionSLO)
	}
}

// TestDetectionNilSafety: the disabled tracker no-ops.
func TestDetectionNilSafety(t *testing.T) {
	var d *DetectionTracker
	d.Inject(0, "mirai", "cam-1")
	if d.Observe(1, "cam-1") {
		t.Error("nil tracker matched an injection")
	}
	d.SetRecorder(nil)
	if d.Pending() != 0 || d.Stats() != nil || d.SLO() != 0 {
		t.Error("nil tracker leaked state")
	}
}
