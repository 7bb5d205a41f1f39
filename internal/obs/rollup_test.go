package obs

import (
	"testing"
	"time"
)

// TestRollupDeltasAndRates pins the core windowing arithmetic: deltas
// are per-window differences of cumulative counters and the rate is the
// delta over the window length.
func TestRollupDeltasAndRates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pkts")
	ru := NewRollup(reg, time.Second, 8)

	c.Add(10)
	ru.Tick(1 * time.Second)
	c.Add(30)
	ru.Tick(3 * time.Second) // a 2s window

	ws := ru.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	w0, w1 := ws[0], ws[1]
	if w0.Index != 0 || w0.Start != 0 || w0.End != time.Second {
		t.Errorf("window 0 bounds = (%d, %s, %s)", w0.Index, w0.Start, w0.End)
	}
	if len(w0.Counters) != 1 || w0.Counters[0].Delta != 10 || w0.Counters[0].Total != 10 {
		t.Errorf("window 0 counters = %+v", w0.Counters)
	}
	if w0.Counters[0].PerSec != 10 {
		t.Errorf("window 0 rate = %g, want 10/s", w0.Counters[0].PerSec)
	}
	if w1.Counters[0].Delta != 30 || w1.Counters[0].Total != 40 {
		t.Errorf("window 1 counters = %+v", w1.Counters)
	}
	if w1.Counters[0].PerSec != 15 {
		t.Errorf("window 1 rate = %g, want 30 over 2s = 15/s", w1.Counters[0].PerSec)
	}
}

// TestRollupHistogramWindows checks that histogram windows carry
// per-window quantiles over only the window's observations, while the
// cumulative quantiles track the whole distribution.
func TestRollupHistogramWindows(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	ru := NewRollup(reg, time.Second, 8)

	for i := 0; i < 100; i++ {
		h.Observe(1) // bucket [1,1]: exact
	}
	ru.Tick(1 * time.Second)
	for i := 0; i < 100; i++ {
		h.Observe(1 << 20)
	}
	ru.Tick(2 * time.Second)

	ws := ru.Windows()
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2", len(ws))
	}
	h0, h1 := ws[0].Hists[0], ws[1].Hists[0]
	if h0.Delta != 100 || h0.P50 != 1 || h0.P99 != 1 {
		t.Errorf("window 0 hist = %+v, want delta 100 with p50=p99=1", h0)
	}
	if h1.Delta != 100 {
		t.Errorf("window 1 delta = %d, want 100", h1.Delta)
	}
	// Window 1 saw only the big values; its p50 must sit in the bucket
	// holding 1<<20, not be dragged down by window 0's ones.
	if h1.P50 < 1<<20 || h1.P50 > 1<<21-1 {
		t.Errorf("window 1 p50 = %d, want within [2^20, 2^21)", h1.P50)
	}
	// The cumulative p50 straddles the two halves: it must be far below
	// window 1's p50.
	if h1.CumP50 >= h1.P50 {
		t.Errorf("cumulative p50 %d not below window p50 %d", h1.CumP50, h1.P50)
	}
	if h1.Count != 200 {
		t.Errorf("cumulative count = %d, want 200", h1.Count)
	}
}

// TestRollupRingEviction pins the bounded-ring contract: the ring keeps
// the newest windows, Total counts everything, Evicted the displaced.
func TestRollupRingEviction(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	ru := NewRollup(reg, time.Second, 3)
	for i := 1; i <= 5; i++ {
		c.Inc()
		ru.Tick(time.Duration(i) * time.Second)
	}
	ws := ru.Windows()
	if len(ws) != 3 {
		t.Fatalf("ring holds %d windows, want 3", len(ws))
	}
	for i, w := range ws {
		if want := i + 2; w.Index != want {
			t.Errorf("window %d has index %d, want %d (oldest evicted first)", i, w.Index, want)
		}
	}
	if ru.Evicted() != 2 {
		t.Errorf("Evicted = %d, want 2", ru.Evicted())
	}
}

// TestRollupNilSafety: the disabled rollup no-ops everywhere.
func TestRollupNilSafety(t *testing.T) {
	var ru *Rollup
	ru.Tick(time.Second)
	if ru.Windows() != nil || ru.Evicted() != 0 || ru.Interval() != 0 {
		t.Error("nil rollup leaked state")
	}
}

// TestRollupSteadyStateAllocs: once the ring has lapped and every metric
// name is known, Tick must stop growing its slot slices (the per-window
// Snapshot copy is the only remaining allocation, which is the documented
// cold-path budget).
func TestRollupSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := NewRegistry()
	c := reg.Counter("n")
	h := reg.Histogram("lat")
	ru := NewRollup(reg, time.Second, 4)
	now := time.Duration(0)
	for i := 0; i < 8; i++ { // lap the ring twice to warm every slot
		now += time.Second
		c.Inc()
		h.Observe(uint64(i))
		ru.Tick(now)
	}
	// Steady state: per-Tick allocations must be bounded by the Snapshot
	// copy alone (4 slice headers + bucket slices), independent of ring
	// position.
	n := testing.AllocsPerRun(100, func() {
		now += time.Second
		c.Inc()
		h.Observe(7)
		ru.Tick(now)
	})
	if n > 8 {
		t.Errorf("steady-state Tick allocates %.1f per run, want <= 8 (snapshot copy only)", n)
	}
}
