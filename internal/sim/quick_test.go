package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// Property: for any random schedule, events execute in nondecreasing
// timestamp order, every non-canceled event runs exactly once, and the
// clock never moves backwards.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel(seed)
		var times []time.Duration
		ran := 0
		for _, d := range delays {
			at := time.Duration(d) * time.Millisecond
			k.ScheduleAt(at, "e", func() {
				times = append(times, k.Now())
				ran++
			})
		}
		k.Run(100 * time.Second)
		if ran != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: canceled events never run, regardless of cancellation pattern.
func TestCancellationProperty(t *testing.T) {
	f := func(delays []uint8, cancelMask []bool) bool {
		k := NewKernel(1)
		n := len(delays)
		if n > 100 {
			n = 100
		}
		ran := make([]bool, n)
		events := make([]Handle, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = k.Schedule(time.Duration(delays[i])*time.Millisecond, "e", func() {
				ran[i] = true
			})
		}
		for i := 0; i < n && i < len(cancelMask); i++ {
			if cancelMask[i] {
				events[i].Cancel()
			}
		}
		k.Run(time.Minute)
		for i := 0; i < n; i++ {
			canceled := i < len(cancelMask) && cancelMask[i]
			if canceled == ran[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
