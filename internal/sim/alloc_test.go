package sim

import (
	"testing"
	"time"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestStepAllocFree is the dynamic half of the //xlf:hotpath contract
// on Kernel.Step: dispatching an already-queued event — including a
// ScheduleArg event, whose payload is boxed at schedule time — must not
// allocate. The queue is pre-filled so only the dispatch itself is
// measured.
func TestStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	const runs = 200
	k := NewKernel(1)
	noop := func() {}
	noopArg := func(any) {}
	var payload int
	for i := 0; i < runs+2; i++ {
		k.Schedule(0, "noop", noop)
		k.ScheduleArg(0, "noop-arg", noopArg, &payload)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if !k.Step() || !k.Step() {
			t.Fatal("queue drained early")
		}
	}); n != 0 {
		t.Errorf("Step allocates %.1f per dispatch pair, want 0", n)
	}
}

// BenchmarkKernelDispatch measures the full schedule→dispatch→recycle
// cycle on a warm kernel and must report 0 allocs/op: the event comes
// from the slot freelist, the wheel buckets and batch reuse their backing
// arrays, and the Handle is a value. The AllocsPerRun test above
// enforces the 0; scripts/check.sh prints ns/op for the log.
func BenchmarkKernelDispatch(b *testing.B) {
	k := NewKernel(1)
	noopArg := func(any) {}
	var payload int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleArg(time.Duration(i%1000), "bench", noopArg, &payload)
		if !k.Step() {
			b.Fatal("queue drained early")
		}
	}
}
