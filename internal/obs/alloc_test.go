package obs

import (
	"fmt"
	"testing"
	"time"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestHotPathAllocFree is the dynamic half of the //xlf:hotpath
// contract (the static half is the hotpathalloc vet rule): the
// disabled-tracer emit path and the metric update paths must not
// allocate.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	t.Run("nil tracer emit", func(t *testing.T) {
		var tr *Tracer
		if n := testing.AllocsPerRun(200, func() {
			tr.EmitAt(0, LayerSim, "event", "", "noop")
			tr.Emit(LayerCore, "ingest", "dev-1", "signal")
			tr.EmitSpan(Span{Layer: LayerNetsim, Op: "send"})
		}); n != 0 {
			t.Errorf("disabled-tracer emit allocates %.1f per run, want 0", n)
		}
	})

	t.Run("counter inc", func(t *testing.T) {
		r := NewRegistry()
		c := r.Counter("alloc.test")
		if n := testing.AllocsPerRun(200, func() {
			c.Inc()
			c.Add(3)
		}); n != 0 {
			t.Errorf("metric updates allocate %.1f per run, want 0", n)
		}
	})

	t.Run("nil recorder emit", func(t *testing.T) {
		var f *FlightRecorder
		if n := testing.AllocsPerRun(200, func() {
			f.Record(Span{Layer: LayerCore, Op: "ingest"})
			f.Trigger(0, TriggerAlert)
		}); n != 0 {
			t.Errorf("disabled-recorder emit allocates %.1f per run, want 0", n)
		}
	})

	t.Run("live recorder emit", func(t *testing.T) {
		f := NewFlightRecorder(64, 4)
		if n := testing.AllocsPerRun(200, func() {
			f.Record(Span{Layer: LayerCore, Op: "ingest", Device: "cam-1"})
			f.Trigger(0, TriggerAlert)
			f.Trigger(0, TriggerDropSpike)
		}); n != 0 {
			t.Errorf("enabled-recorder emit allocates %.1f per run, want 0", n)
		}
	})

	t.Run("traced emit with recorder tee", func(t *testing.T) {
		tr := NewTracer(64, nil)
		tr.SetRecorder(NewFlightRecorder(64, 4))
		if n := testing.AllocsPerRun(200, func() {
			tr.EmitAt(0, LayerCore, "ingest", "cam-1", "signal")
		}); n != 0 {
			t.Errorf("traced emit with recorder tee allocates %.1f per run, want 0", n)
		}
	})

	t.Run("detection observe", func(t *testing.T) {
		d := NewDetectionTracker(nil, time.Hour)
		d.Inject(0, "mirai", "cam-1")
		if n := testing.AllocsPerRun(200, func() {
			d.Observe(1, "cam-1")  // hit (first run) then cleared
			d.Observe(1, "cam-99") // miss: the common hot-path case
		}); n != 0 {
			t.Errorf("detection observe allocates %.1f per run, want 0", n)
		}
	})

	t.Run("nil detection observe", func(t *testing.T) {
		var d *DetectionTracker
		if n := testing.AllocsPerRun(200, func() {
			d.Observe(1, "cam-1")
		}); n != 0 {
			t.Errorf("disabled-tracker observe allocates %.1f per run, want 0", n)
		}
	})
}

// BenchmarkRegistrySnapshot pins the cost the rollup engine pays every
// window: a full copy of a registry at harness scale (the satellite
// preallocation fix keeps it to one allocation per sample slice plus the
// bucket copies).
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter(fmt.Sprintf("counter.%d", i)).Add(uint64(i))
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram(fmt.Sprintf("hist.%d", i))
		for v := uint64(1); v < 1<<20; v <<= 1 {
			h.Observe(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := r.Snapshot()
		if len(snap.Counters) != 32 {
			b.Fatal("snapshot lost counters")
		}
	}
}

// BenchmarkRollupTick measures the per-window rollup cost at the same
// registry scale — the cold-path budget the telemetry pipeline pays once
// per simulated window.
func BenchmarkRollupTick(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 32; i++ {
		r.Counter(fmt.Sprintf("counter.%d", i)).Add(uint64(i))
	}
	for i := 0; i < 8; i++ {
		h := r.Histogram(fmt.Sprintf("hist.%d", i))
		for v := uint64(1); v < 1<<20; v <<= 1 {
			h.Observe(v)
		}
	}
	ru := NewRollup(r, time.Second, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.Tick(time.Duration(i+1) * time.Second)
	}
}
