package sim

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30*time.Millisecond, "c", func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, "a", func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, "b", func() { got = append(got, 2) })
	k.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, "tie", func() { got = append(got, i) })
	}
	k.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.Schedule(42*time.Millisecond, "probe", func() { at = k.Now() })
	k.Run(time.Second)
	if at != 42*time.Millisecond {
		t.Errorf("event saw Now()=%s, want 42ms", at)
	}
	if k.Now() != time.Second {
		t.Errorf("after Run, Now()=%s, want horizon 1s", k.Now())
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(2*time.Second, "late", func() { fired = true })
	k.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	k.Run(3 * time.Second)
	if !fired {
		t.Error("event did not fire on second Run")
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10*time.Millisecond, "x", func() { fired = true })
	e.Cancel()
	k.Run(time.Second)
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelZeroHandleSafe(t *testing.T) {
	k := NewKernel(1)
	fired := false
	k.Schedule(time.Millisecond, "live", func() { fired = true })
	var h Handle
	h.Cancel() // must not panic or touch any slot
	k.Run(time.Second)
	if !fired {
		t.Error("zero-handle Cancel canceled a live event")
	}
}

func TestHandleStaleAfterDispatch(t *testing.T) {
	k := NewKernel(1)
	h := k.Schedule(time.Millisecond, "once", func() {})
	k.Run(time.Second)
	// The event ran and its pool slot was recycled: the handle is stale,
	// and the next event takes the same slot.
	fired := false
	next := k.Schedule(time.Millisecond, "next", func() { fired = true })
	if next.slot != h.slot {
		t.Fatalf("next event took slot %d, want the recycled slot %d", next.slot, h.slot)
	}
	h.Cancel() // must not affect the slot's new occupant
	k.Run(2 * time.Second)
	if !fired {
		t.Error("stale Cancel canceled the recycled slot's new event")
	}
}

func TestEventsInsideEvents(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Schedule(10*time.Millisecond, "outer", func() {
		got = append(got, "outer")
		k.Schedule(5*time.Millisecond, "inner", func() { got = append(got, "inner") })
	})
	k.Run(time.Second)
	if len(got) != 2 || got[0] != "outer" || got[1] != "inner" {
		t.Errorf("got %v, want [outer inner]", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	at := time.Duration(-1)
	k.Schedule(time.Millisecond, "advance", func() {
		k.Schedule(-5*time.Second, "past", func() { at = k.Now() })
	})
	k.Run(time.Second)
	if at != time.Millisecond {
		t.Errorf("negative delay ran at %s, want %s", at, time.Millisecond)
	}
}

func TestDeterminismAcrossKernels(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(99)
		var vals []int64
		k.Every(10*time.Millisecond, 5*time.Millisecond, "tick", func() {
			vals = append(vals, k.Rand().Int63n(1000), int64(k.Now()))
		})
		k.Run(200 * time.Millisecond)
		return vals
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no ticks fired")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTickerStop(t *testing.T) {
	k := NewKernel(1)
	var ticker *Ticker
	n := 0
	ticker = k.Every(10*time.Millisecond, 0, "tick", func() {
		n++
		if n == 3 {
			ticker.Stop()
		}
	})
	k.Run(time.Second)
	if n != 3 {
		t.Errorf("ticker fired %d times, want 3", n)
	}
}

func TestTickerNoJitterPeriod(t *testing.T) {
	k := NewKernel(1)
	var times []time.Duration
	k.Every(25*time.Millisecond, 0, "tick", func() { times = append(times, k.Now()) })
	k.Run(100 * time.Millisecond)
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 75 * time.Millisecond, 100 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestProcessedCount(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 5; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, "e", func() {})
	}
	k.Run(time.Second)
	if k.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", k.Processed())
	}
}
