// Package obs is XLF's runtime observability substrate: structured span
// tracing and a race-safe metrics registry, shared by every layer of the
// framework (DESIGN.md §8). It sits at the very bottom of the layer DAG —
// it imports nothing — so the sim kernel, the packet network, the layer
// functions and the Core can all emit telemetry without coupling to each
// other.
//
// Two properties are load-bearing:
//
//   - Determinism. Spans are timestamped on the *simulation* clock
//     (injected, never the wall clock), so a traced run replays
//     byte-identically from a seed at any scheduler parallelism.
//   - Near-zero disabled cost. A nil *Tracer is the "off" state: every
//     method is nil-safe, the hot paths guard emission with a nil check,
//     and the disabled path costs one predictable branch (benchmarked in
//     BenchmarkEmitDisabled and the root BenchmarkCoreIngest guard).
package obs

import (
	"sync"
	"time"
)

// Canonical layer names for Span.Layer. The set mirrors the XLF
// architecture: the three paper layers plus the substrates and
// network-function sublayers that produce their own telemetry.
const (
	LayerSim     = "sim"
	LayerDevice  = "device"
	LayerNetsim  = "netsim"
	LayerDPI     = "dpi"
	LayerShaping = "shaping"
	LayerXAuth   = "xauth"
	LayerService = "service"
	LayerCore    = "core"
)

// DefaultCapacity is the ring-buffer size used when a Tracer is built
// with capacity <= 0: large enough to hold a full E1-scale scenario,
// small enough to stay allocation-bounded.
const DefaultCapacity = 1 << 16

// Span is one annotated instant (or interval, when Dur is set) in the
// life of the system: a kernel event, a packet hop, a correlation-engine
// decision. Field order is the xlf-trace/v1 wire order — do not reorder
// without bumping TraceSchema.
type Span struct {
	// Seq orders spans within one trace. The Tracer assigns it at
	// emission; WriteTrace renumbers into file order.
	Seq uint64 `json:"seq"`
	// Time is the simulation-clock timestamp (nanoseconds offset from
	// the simulation epoch).
	Time time.Duration `json:"t_ns"`
	// Dur, when nonzero, is the interval the span covers (e.g. a
	// packet's send-to-deliver latency or a modeled auth latency).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Layer names the producing layer (Layer* constants).
	Layer string `json:"layer"`
	// Op is the operation within the layer ("deliver", "ingest", ...).
	Op string `json:"op"`
	// Device attributes the span to a device ID when one is known.
	Device string `json:"device,omitempty"`
	// Cause annotates why the span happened (signal kind, rule ID,
	// denial reason, event name).
	Cause string `json:"cause,omitempty"`
	// Detail carries free-form context (detector source, user name).
	Detail string `json:"detail,omitempty"`
}

// Tracer records spans into a fixed-capacity ring buffer, evicting the
// oldest span once full. A nil *Tracer is the disabled tracer: every
// method no-ops (or returns a zero value), which is the fast path the
// hot loops rely on. All methods are safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	clock   func() time.Duration
	buf     []Span
	head    int // next write slot
	n       int // occupied slots
	seq     uint64
	evicted uint64
	rec     *FlightRecorder
}

// NewTracer builds a tracer with the given ring capacity (DefaultCapacity
// when capacity <= 0). clock supplies timestamps for Emit; it may be nil
// (spans then carry Time 0 until SetClock binds the simulation clock).
func NewTracer(capacity int, clock func() time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Span, capacity), clock: clock}
}

// SetClock binds the timestamp source for Emit — the testbed points it at
// the simulation kernel's Now. Nil-safe.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// SetRecorder tees every emitted span into the given flight recorder
// (nil detaches). The recorder sees spans after Seq assignment, so its
// dumps carry trace-consistent sequence numbers. Nil-safe.
func (t *Tracer) SetRecorder(rec *FlightRecorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rec = rec
	t.mu.Unlock()
}

// Emit records an instant span timestamped by the bound clock.
//
//xlf:hotpath
func (t *Tracer) Emit(layer, op, device, cause string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var at time.Duration
	if t.clock != nil {
		at = t.clock()
	}
	t.emitLocked(Span{Time: at, Layer: layer, Op: op, Device: device, Cause: cause})
	t.mu.Unlock()
}

// EmitAt records an instant span with an explicit simulation timestamp —
// the form the hot paths use, since they already hold the sim time.
//
//xlf:hotpath
func (t *Tracer) EmitAt(at time.Duration, layer, op, device, cause string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(Span{Time: at, Layer: layer, Op: op, Device: device, Cause: cause})
	t.mu.Unlock()
}

// EmitSpan records a fully-specified span (Dur, Detail). The tracer
// assigns Seq; the caller supplies Time.
//
//xlf:hotpath
func (t *Tracer) EmitSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(s)
	t.mu.Unlock()
}

// Region is an in-flight interval span opened by Start/StartAt and
// emitted by End/EndAt. Every Region that is started must be ended on
// every code path (xauth's TestProxyHandleTracesOneAccessSpan pins the
// one production site, Proxy.Handle); ending twice is a no-op, so
// `defer r.End(...)` composes with an early explicit end.
// A Region from a nil Tracer is nil, and all Region methods are
// nil-safe, preserving the zero-cost disabled path.
type Region struct {
	t    *Tracer
	span Span
}

// Start opens an interval span timestamped by the bound clock. The
// returned Region must be ended on all paths; it is nil (and safe to
// use) when the tracer is disabled.
func (t *Tracer) Start(layer, op, device string) *Region {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var at time.Duration
	if t.clock != nil {
		at = t.clock()
	}
	t.mu.Unlock()
	return &Region{t: t, span: Span{Time: at, Layer: layer, Op: op, Device: device}}
}

// StartAt opens an interval span at an explicit simulation timestamp —
// the form code on the sim hot path uses, since it already holds the
// current time.
func (t *Tracer) StartAt(at time.Duration, layer, op, device string) *Region {
	if t == nil {
		return nil
	}
	return &Region{t: t, span: Span{Time: at, Layer: layer, Op: op, Device: device}}
}

// SetOp rewrites the region's operation before it is emitted (e.g. an
// "access" region that turns out to be a denial). Nil-safe.
func (r *Region) SetOp(op string) {
	if r != nil {
		r.span.Op = op
	}
}

// SetDetail attaches free-form context to the region. Nil-safe.
func (r *Region) SetDetail(detail string) {
	if r != nil {
		r.span.Detail = detail
	}
}

// End closes the region at the bound clock's current time and emits it
// with the given cause. Subsequent End/EndAt calls no-op. Nil-safe.
func (r *Region) End(cause string) {
	if r == nil || r.t == nil {
		return
	}
	t := r.t
	t.mu.Lock()
	var at time.Duration
	if t.clock != nil {
		at = t.clock()
	}
	r.endLocked(at, cause)
	t.mu.Unlock()
}

// EndAt closes the region at an explicit simulation timestamp.
// Subsequent End/EndAt calls no-op. Nil-safe.
func (r *Region) EndAt(at time.Duration, cause string) {
	if r == nil || r.t == nil {
		return
	}
	t := r.t
	t.mu.Lock()
	r.endLocked(at, cause)
	t.mu.Unlock()
}

// endLocked emits the region's span; the caller holds r.t.mu. Marking
// r.t nil afterwards makes End idempotent.
func (r *Region) endLocked(at time.Duration, cause string) {
	if at > r.span.Time {
		r.span.Dur = at - r.span.Time
	}
	r.span.Cause = cause
	r.t.emitLocked(r.span)
	r.t = nil
}

// emitLocked appends one span; the caller holds t.mu.
//
//xlf:hotpath
func (t *Tracer) emitLocked(s Span) {
	t.seq++
	s.Seq = t.seq
	t.buf[t.head] = s
	t.head++
	if t.head == len(t.buf) {
		t.head = 0
	}
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.evicted++
	}
	if t.rec != nil {
		t.rec.Record(s)
	}
}

// Spans returns a copy of the recorded spans, oldest first. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.head - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Len returns the number of spans currently held. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Evicted returns how many spans the ring displaced. Nil-safe.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Cap returns the ring capacity. Nil-safe.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}
