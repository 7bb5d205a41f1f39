package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.EmitAt(10, LayerDevice, "keepalive", "cam-1", "sealed")
	tr.EmitAt(20, LayerNetsim, "deliver", "cam-1", "")
	tr.EmitSpan(Span{Time: 30, Dur: 5, Layer: LayerCore, Op: "ingest", Device: "cam-1", Cause: "dpi:mirai-loader", Detail: "dpi"})
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for i, s := range spans {
		if s.Seq != uint64(i+1) {
			t.Errorf("span %d seq = %d", i, s.Seq)
		}
	}
	if spans[2].Dur != 5 || spans[2].Detail != "dpi" {
		t.Errorf("EmitSpan lost fields: %+v", spans[2])
	}
	if tr.Evicted() != 0 {
		t.Errorf("evicted = %d, want 0", tr.Evicted())
	}
}

// TestTracerEvictionOrder fills the ring past capacity and checks the
// survivors are exactly the newest spans, oldest first.
func TestTracerEvictionOrder(t *testing.T) {
	const capacity, emitted = 4, 11
	tr := NewTracer(capacity, nil)
	for i := 0; i < emitted; i++ {
		tr.EmitAt(time.Duration(i), LayerSim, "event", "", "")
	}
	spans := tr.Spans()
	if len(spans) != capacity {
		t.Fatalf("len = %d, want %d", len(spans), capacity)
	}
	if got, want := tr.Evicted(), uint64(emitted-capacity); got != want {
		t.Fatalf("evicted = %d, want %d", got, want)
	}
	for i, s := range spans {
		wantSeq := uint64(emitted - capacity + i + 1)
		if s.Seq != wantSeq || s.Time != time.Duration(wantSeq-1) {
			t.Errorf("survivor %d = seq %d t %d, want seq %d", i, s.Seq, s.Time, wantSeq)
		}
	}
}

func TestTracerClock(t *testing.T) {
	now := time.Duration(0)
	tr := NewTracer(4, func() time.Duration { return now })
	now = 42
	tr.Emit(LayerXAuth, "token-issue", "cam-1", "")
	tr.SetClock(func() time.Duration { return 99 })
	tr.Emit(LayerXAuth, "token-verify", "cam-1", "")
	spans := tr.Spans()
	if spans[0].Time != 42 || spans[1].Time != 99 {
		t.Errorf("clock timestamps = %d, %d; want 42, 99", spans[0].Time, spans[1].Time)
	}
}

// TestNilTracer pins the disabled fast path: every method on a nil
// *Tracer must be a safe no-op. Hot paths rely on this instead of a
// boolean flag.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(LayerCore, "ingest", "", "")
	tr.EmitAt(1, LayerCore, "ingest", "", "")
	tr.EmitSpan(Span{})
	tr.SetClock(func() time.Duration { return 0 })
	if tr.Spans() != nil || tr.Evicted() != 0 {
		t.Error("nil tracer leaked state")
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0, nil)
	for i := 0; i <= DefaultCapacity; i++ {
		tr.EmitAt(time.Duration(i), LayerSim, "event", "", "")
	}
	if got := len(tr.Spans()); got != DefaultCapacity || tr.Evicted() != 1 {
		t.Errorf("default ring holds %d spans, evicted %d; want %d, 1", got, tr.Evicted(), DefaultCapacity)
	}
}

// TestTracerConcurrentEmit hammers a small ring from many goroutines
// while a reader snapshots; the race detector is the real assertion, but
// the accounting must also balance.
func TestTracerConcurrentEmit(t *testing.T) {
	const workers, perWorker = 8, 500
	tr := NewTracer(64, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.EmitAt(time.Duration(i), LayerNetsim, "send", "cam-1", "")
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Spans()
		}
	}()
	wg.Wait()
	<-done
	if got, want := uint64(len(tr.Spans()))+tr.Evicted(), uint64(workers*perWorker); got != want {
		t.Errorf("held+evicted = %d, want %d", got, want)
	}
}

// BenchmarkEmitDisabled measures the nil-tracer fast path the hot loops
// pay when tracing is off: it must stay at roughly a branch.
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EmitAt(time.Duration(i), LayerCore, "ingest", "cam-1", "kind")
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTracer(1<<12, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EmitAt(time.Duration(i), LayerCore, "ingest", "cam-1", "kind")
	}
}
