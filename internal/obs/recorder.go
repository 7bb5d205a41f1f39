package obs

import (
	"sync"
	"time"
)

// Trigger identifies why the flight recorder dumped its ring.
type Trigger uint8

// The trigger classes the telemetry pipeline fires on. They stay a small
// dense enum so the recorder's hot path can pend them in a fixed array —
// no map, no allocation.
const (
	// TriggerAlert fires when the Core raises an alert (or a harness
	// detector flags an attacker).
	TriggerAlert Trigger = iota
	// TriggerDropSpike fires when a rollup window sees the network drop
	// counter move.
	TriggerDropSpike
	// TriggerSLOBreach fires when a detection latency exceeds the
	// configured SLO.
	TriggerSLOBreach

	numTriggers
)

// String names the trigger for dump rendering.
func (tr Trigger) String() string {
	switch tr {
	case TriggerAlert:
		return "alert"
	case TriggerDropSpike:
		return "drop-spike"
	case TriggerSLOBreach:
		return "slo-breach"
	default:
		return "unknown"
	}
}

// DefaultRecorderSpans is the span ring size used when a FlightRecorder
// is built with capacity <= 0 — deep enough to cover the events leading
// into an alert, ~250x smaller than a full trace ring.
const DefaultRecorderSpans = 256

// DefaultRecorderDumps bounds how many dumps a recorder retains when
// built with maxDumps <= 0.
const DefaultRecorderDumps = 16

// Dump is one flight-recorder excerpt: the spans that preceded a trigger,
// plus which triggers fired in the window that produced it. Field order
// is the xlf-metrics/v1 wire order.
type Dump struct {
	// Src names the producing harness (stamped at collection, like
	// WindowRecord.Src).
	Src string `json:"src,omitempty"`
	// Time is the sim-clock instant the dump was cut (the Flush time).
	Time time.Duration `json:"t_ns"`
	// Reasons lists the distinct triggers that fired since the previous
	// flush, in fixed enum order (deterministic — never map order).
	Reasons []string `json:"reasons"`
	// Suppressed counts trigger fires beyond the first per class since
	// the previous flush: the debounce makes repeated alerts in one
	// window cost one dump.
	Suppressed uint64 `json:"suppressed,omitempty"`
	// Spans is the ring content at flush time, oldest first.
	Spans []Span `json:"spans"`
}

// FlightRecorder keeps a fixed-size ring of the most recent spans and
// cuts a Dump only when a trigger fired — post-mortem context at a tiny
// fraction of full-trace cost. Record and Trigger are hot-path safe
// (fixed ring, fixed pending array, zero allocation); Flush is the cold
// path that materialises a dump, called once per rollup window so
// triggers are debounced to at most one dump per window. A nil
// *FlightRecorder disables everything, mirroring the nil Tracer.
//
// Its mutex is a leaf lock: no method calls out while holding it, so the
// Tracer and the DetectionTracker may call in with their own locks held
// and no lock-order cycle can pass through it.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []Span
	head int // next write slot
	n    int // occupied slots

	pending [numTriggers]uint64 // fires since last flush, per class

	dumps        []Dump
	maxDumps     int
	triggered    uint64 // total trigger fires over the recorder's life
	droppedDumps uint64 // dumps discarded because maxDumps was reached
}

// NewFlightRecorder builds a recorder with the given span-ring capacity
// (DefaultRecorderSpans when <= 0) and retained-dump bound
// (DefaultRecorderDumps when <= 0).
func NewFlightRecorder(capacity, maxDumps int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultRecorderSpans
	}
	if maxDumps <= 0 {
		maxDumps = DefaultRecorderDumps
	}
	return &FlightRecorder{
		buf:      make([]Span, capacity),
		dumps:    make([]Dump, 0, maxDumps),
		maxDumps: maxDumps,
	}
}

// Record pushes one span into the ring, evicting the oldest when full.
// Nil-safe; the disabled path is one branch.
//
//xlf:hotpath
func (f *FlightRecorder) Record(s Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.buf[f.head] = s
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	if f.n < len(f.buf) {
		f.n++
	}
	f.mu.Unlock()
}

// Trigger marks a trigger class as fired at the given sim time. The dump
// itself is cut by the next Flush; repeated fires of the same class
// before that flush are counted but produce no extra dump (the
// once-per-window debounce). Nil-safe, allocation-free.
//
//xlf:hotpath
func (f *FlightRecorder) Trigger(at time.Duration, tr Trigger) {
	if f == nil || tr >= numTriggers {
		return
	}
	f.mu.Lock()
	f.pending[tr]++
	f.triggered++
	f.mu.Unlock()
}

// Flush cuts a dump if any trigger fired since the previous flush,
// clearing the pending state either way, and reports whether a dump was
// cut. The rollup tick calls it once per window. Cold path: the dump
// copies the ring. Nil-safe.
func (f *FlightRecorder) Flush(now time.Duration) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fires := uint64(0)
	distinct := uint64(0)
	for _, c := range f.pending {
		fires += c
		if c > 0 {
			distinct++
		}
	}
	if fires == 0 {
		return false
	}
	if len(f.dumps) >= f.maxDumps {
		f.droppedDumps++
		f.pending = [numTriggers]uint64{}
		return false
	}
	d := Dump{
		Time:       now,
		Reasons:    make([]string, 0, distinct),
		Suppressed: fires - distinct,
		Spans:      make([]Span, 0, f.n),
	}
	for tr := Trigger(0); tr < numTriggers; tr++ {
		if f.pending[tr] > 0 {
			d.Reasons = append(d.Reasons, tr.String())
		}
	}
	start := f.head - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		d.Spans = append(d.Spans, f.buf[(start+i)%len(f.buf)])
	}
	f.dumps = append(f.dumps, d)
	f.pending = [numTriggers]uint64{}
	return true
}

// Dumps returns a copy of the retained dumps in cut order. Nil-safe.
func (f *FlightRecorder) Dumps() []Dump {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Dump, len(f.dumps))
	for i, d := range f.dumps {
		d.Reasons = append([]string(nil), d.Reasons...)
		d.Spans = append([]Span(nil), d.Spans...)
		out[i] = d
	}
	return out
}

// Triggered returns the total trigger fires over the recorder's life.
// Nil-safe.
func (f *FlightRecorder) Triggered() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.triggered
}

// DroppedDumps returns how many dumps the maxDumps bound discarded.
// Nil-safe.
func (f *FlightRecorder) DroppedDumps() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.droppedDumps
}

// Len returns the number of spans currently in the ring. Nil-safe.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
