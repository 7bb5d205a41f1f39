package obs

import (
	"testing"
	"time"
)

// TestRecorderRingEvictionOrder pins that a dump holds the most recent
// spans oldest-first, with the displaced prefix gone.
func TestRecorderRingEvictionOrder(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	for i := 1; i <= 7; i++ {
		f.Record(Span{Seq: uint64(i)})
	}
	f.Trigger(7, TriggerAlert)
	if !f.Flush(7) {
		t.Fatal("flush with a pending trigger cut no dump")
	}
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if len(d.Spans) != 4 {
		t.Fatalf("dump holds %d spans, want ring capacity 4", len(d.Spans))
	}
	for i, s := range d.Spans {
		if want := uint64(i + 4); s.Seq != want {
			t.Errorf("span %d has seq %d, want %d (oldest first, 1-3 evicted)", i, s.Seq, want)
		}
	}
	if d.Time != 7 {
		t.Errorf("dump time = %d, want flush time 7", d.Time)
	}
}

// TestRecorderDebounce pins the once-per-window contract: many fires of
// one class between flushes cut one dump and count the rest as
// suppressed; a flush with nothing pending cuts nothing.
func TestRecorderDebounce(t *testing.T) {
	f := NewFlightRecorder(8, 8)
	f.Record(Span{Seq: 1})
	for i := 0; i < 5; i++ {
		f.Trigger(time.Duration(i), TriggerAlert)
	}
	f.Trigger(5, TriggerDropSpike)
	if !f.Flush(10) {
		t.Fatal("first flush cut no dump")
	}
	if f.Flush(20) {
		t.Error("second flush cut a dump with nothing pending")
	}
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1 (debounced)", len(dumps))
	}
	d := dumps[0]
	if len(d.Reasons) != 2 || d.Reasons[0] != "alert" || d.Reasons[1] != "drop-spike" {
		t.Errorf("reasons = %v, want [alert drop-spike] in enum order", d.Reasons)
	}
	if d.Suppressed != 4 {
		t.Errorf("suppressed = %d, want 4 (6 fires, 2 distinct)", d.Suppressed)
	}
}

// TestRecorderMaxDumps: beyond the retention bound, flushes clear the
// pending state but discard the dump, counting it.
func TestRecorderMaxDumps(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	for i := 0; i < 4; i++ {
		f.Trigger(time.Duration(i), TriggerSLOBreach)
		f.Flush(time.Duration(i))
	}
	if got := len(f.Dumps()); got != 2 {
		t.Errorf("retained %d dumps, want 2", got)
	}
	if f.DroppedDumps() != 2 {
		t.Errorf("dropped = %d, want 2", f.DroppedDumps())
	}
}

// TestRecorderNilSafety: every method on the disabled recorder no-ops.
func TestRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Record(Span{})
	f.Trigger(0, TriggerAlert)
	if f.Flush(0) {
		t.Error("nil recorder flushed a dump")
	}
	if f.Dumps() != nil || f.DroppedDumps() != 0 {
		t.Error("nil recorder leaked state")
	}
}

// TestTracerTeesIntoRecorder: a tracer with a bound recorder copies each
// emitted span (after Seq assignment) into the recorder's ring.
func TestTracerTeesIntoRecorder(t *testing.T) {
	tr := NewTracer(16, nil)
	f := NewFlightRecorder(8, 2)
	tr.SetRecorder(f)
	tr.EmitAt(5, LayerCore, "alert", "cam-1", "spoof")
	f.Trigger(5, TriggerAlert)
	f.Flush(6)
	d := f.Dumps()[0]
	if len(d.Spans) != 1 || d.Spans[0].Seq != 1 || d.Spans[0].Device != "cam-1" {
		t.Fatalf("teed spans = %+v, want one: seq 1 device cam-1", d.Spans)
	}
	tr.SetRecorder(nil)
	tr.EmitAt(7, LayerCore, "alert", "cam-2", "spoof")
	f.Trigger(7, TriggerAlert)
	f.Flush(8)
	if d := f.Dumps()[1]; len(d.Spans) != 1 {
		t.Error("detached recorder still received spans")
	}
}
