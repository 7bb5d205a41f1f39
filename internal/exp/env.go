package exp

import (
	"math/rand"
	"sync"
	"time"

	"xlf/internal/obs"
)

// Clock supplies monotonic elapsed-time readings for the few experiment
// sections that measure real execution speed (the Table III throughput
// column and the E4 DPI matching paths). Experiments never read the wall
// clock directly: timing flows through the Env, so tests can substitute a
// deterministic clock and replay an entire report byte-identically.
type Clock func() time.Duration

// WallClock returns a Clock backed by the process monotonic clock. This is
// the one sanctioned wall-clock read in the experiment suite; xlf-vet's
// determinism rule bans any other (see //xlf:allow-wallclock).
func WallClock() Clock {
	start := time.Now() //xlf:allow-wallclock benchmark timing source
	return func() time.Duration {
		return time.Since(start) //xlf:allow-wallclock benchmark timing source
	}
}

// StepClock returns a fake Clock that advances by step on every reading,
// so each timed section reports the same fixed elapsed time. The
// determinism regression tests use it to assert that two runs of the same
// experiment render identical tables.
func StepClock(step time.Duration) Clock {
	var now time.Duration
	return func() time.Duration {
		now += step
		return now
	}
}

// Env carries everything an experiment depends on besides its inputs: the
// seed for its random streams, the clock for throughput timing, and the
// worker budget for inner parameter sweeps. Every experiment is a pure
// function of its Env.
type Env struct {
	Seed  int64
	Clock Clock

	// ClockFactory, when set, supplies an independent Clock for every
	// Fork. Clocks are stateful closures, so concurrent experiments must
	// not share one: the scheduler forks the root Env per experiment (and
	// Sweep per sweep point) and relies on this factory for isolation.
	// When nil, Fork reuses Clock and only sequential execution is safe.
	ClockFactory func() Clock

	// Workers bounds the fan-out of inner parameter sweeps (see Sweep).
	// Zero or one means sequential.
	Workers int

	// trace, when non-nil, is this env's node in the trace tree: each env
	// records into its own obs.Tracer, and forks hang child nodes off the
	// parent in fork order. Because the scheduler and Sweep fork
	// sequentially in dispatch order, the tree shape — and therefore the
	// TraceSpans concatenation — is identical at any parallelism.
	trace *traceNode

	// telemetry, when non-nil, is this env's node in the telemetry tree:
	// experiments attach their rollups and flight recorders here, and
	// TelemetryWindows concatenates the subtree depth-first in fork
	// order — the same determinism template as the trace tree.
	telemetry *telemetryNode
}

// telemetrySink is one attached (rollup, recorder) pair with its source
// label, in attach order.
type telemetrySink struct {
	label  string
	rollup *obs.Rollup
	rec    *obs.FlightRecorder
}

// telemetryNode is one env's telemetry sinks plus its forked children,
// in fork order.
type telemetryNode struct {
	mu       sync.Mutex
	interval time.Duration
	sinks    []telemetrySink
	children []*telemetryNode
}

// fork creates a child node. Safe for concurrent use; deterministic child
// order requires forking from a single goroutine (the scheduler and Sweep
// dispatch loops do).
func (n *telemetryNode) fork() *telemetryNode {
	child := &telemetryNode{interval: n.interval}
	n.mu.Lock()
	n.children = append(n.children, child)
	n.mu.Unlock()
	return child
}

// attach registers one experiment run's telemetry under its source label.
func (n *telemetryNode) attach(label string, rollup *obs.Rollup, rec *obs.FlightRecorder) {
	n.mu.Lock()
	n.sinks = append(n.sinks, telemetrySink{label: label, rollup: rollup, rec: rec})
	n.mu.Unlock()
}

// collect appends this node's windows and dumps (stamped with their
// source labels) and then its children's, depth-first.
func (n *telemetryNode) collect(windows []obs.WindowRecord, dumps []obs.Dump) ([]obs.WindowRecord, []obs.Dump) {
	n.mu.Lock()
	sinks := append([]telemetrySink(nil), n.sinks...)
	children := append([]*telemetryNode(nil), n.children...)
	n.mu.Unlock()
	for _, s := range sinks {
		for _, w := range s.rollup.Windows() {
			w.Src = s.label
			windows = append(windows, w)
		}
		for _, d := range s.rec.Dumps() {
			d.Src = s.label
			dumps = append(dumps, d)
		}
	}
	for _, c := range children {
		windows, dumps = c.collect(windows, dumps)
	}
	return windows, dumps
}

// evicted sums rollup-ring evictions over the subtree.
func (n *telemetryNode) evicted() uint64 {
	n.mu.Lock()
	sinks := append([]telemetrySink(nil), n.sinks...)
	children := append([]*telemetryNode(nil), n.children...)
	n.mu.Unlock()
	var total uint64
	for _, s := range sinks {
		total += s.rollup.Evicted()
	}
	for _, c := range children {
		total += c.evicted()
	}
	return total
}

// traceNode is one env's tracer plus its forked children, in fork order.
type traceNode struct {
	mu       sync.Mutex
	capacity int
	tracer   *obs.Tracer
	children []*traceNode
}

// fork creates a child node with its own tracer. Safe for concurrent use,
// but callers that need a deterministic child order must fork from a
// single goroutine (the scheduler's dispatch loop does).
func (n *traceNode) fork() *traceNode {
	child := &traceNode{capacity: n.capacity, tracer: obs.NewTracer(n.capacity, nil)}
	n.mu.Lock()
	n.children = append(n.children, child)
	n.mu.Unlock()
	return child
}

// collect appends this node's spans and then its children's, depth-first.
func (n *traceNode) collect(spans []obs.Span) []obs.Span {
	spans = append(spans, n.tracer.Spans()...)
	n.mu.Lock()
	children := append([]*traceNode(nil), n.children...)
	n.mu.Unlock()
	for _, c := range children {
		spans = c.collect(spans)
	}
	return spans
}

// evicted sums ring-buffer evictions over the subtree.
func (n *traceNode) evicted() uint64 {
	total := n.tracer.Evicted()
	n.mu.Lock()
	children := append([]*traceNode(nil), n.children...)
	n.mu.Unlock()
	for _, c := range children {
		total += c.evicted()
	}
	return total
}

// EnableTracing attaches a trace tree to the env: this env and every env
// forked from it record spans into per-fork ring buffers of the given
// capacity (obs.DefaultCapacity when capacity <= 0). Call before Fork.
func (e *Env) EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = obs.DefaultCapacity
	}
	e.trace = &traceNode{capacity: capacity, tracer: obs.NewTracer(capacity, nil)}
}

// Tracer returns this env's span recorder, or nil when tracing is off —
// callers pass it straight into xlf.Options.Tracer either way.
func (e *Env) Tracer() *obs.Tracer {
	if e.trace == nil {
		return nil
	}
	return e.trace.tracer
}

// TraceSpans returns every span recorded in this env's subtree: the env's
// own spans first, then each forked child's, depth-first in fork order.
// With a step clock the result is byte-stable across runs and -parallel
// levels once obs.WriteTrace renumbers the sequence numbers.
func (e *Env) TraceSpans() []obs.Span {
	if e.trace == nil {
		return nil
	}
	return e.trace.collect(nil)
}

// TraceEvicted reports how many spans the subtree's ring buffers
// displaced; nonzero means TraceSpans is incomplete.
func (e *Env) TraceEvicted() uint64 {
	if e.trace == nil {
		return 0
	}
	return e.trace.evicted()
}

// EnableTelemetry attaches a telemetry tree to the env: experiments in
// this env and every env forked from it build per-run rollups at the
// given sim-time interval (1s when interval <= 0) and register them via
// AttachTelemetry. Call before Fork.
func (e *Env) EnableTelemetry(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	e.telemetry = &telemetryNode{interval: interval}
}

// RollupInterval returns the telemetry window length, or 0 when
// telemetry is off — experiments use it as the enablement check.
func (e *Env) RollupInterval() time.Duration {
	if e.telemetry == nil {
		return 0
	}
	return e.telemetry.interval
}

// AttachTelemetry registers one run's rollup and flight recorder under a
// source label (e.g. "E10/1000"). The label is stamped into each
// collected window and dump, so one telemetry file can carry several
// runs. No-op when telemetry is off.
func (e *Env) AttachTelemetry(label string, rollup *obs.Rollup, rec *obs.FlightRecorder) {
	if e.telemetry == nil {
		return
	}
	e.telemetry.attach(label, rollup, rec)
}

// TelemetryWindows returns every rollup window and flight-recorder dump
// in this env's subtree, depth-first in fork/attach order with source
// labels stamped. Deterministic across -parallel levels for the same
// reason TraceSpans is: the tree shape follows the sequential dispatch
// order, not goroutine timing.
func (e *Env) TelemetryWindows() ([]obs.WindowRecord, []obs.Dump) {
	if e.telemetry == nil {
		return nil, nil
	}
	return e.telemetry.collect(nil, nil)
}

// TelemetryEvicted reports how many rollup windows the subtree's rings
// displaced; nonzero means TelemetryWindows is incomplete.
func (e *Env) TelemetryEvicted() uint64 {
	if e.telemetry == nil {
		return 0
	}
	return e.telemetry.evicted()
}

// NewEnv returns the standard environment: seeded randomness and
// wall-clock throughput timing.
func NewEnv(seed int64) *Env {
	return &Env{Seed: seed, Clock: WallClock(), ClockFactory: WallClock}
}

// NewStepEnv returns a fully deterministic environment: seeded randomness
// and a fixed fake clock, so every timed section reports the same elapsed
// time and the rendered report is byte-identical across runs and across
// -parallel levels. cmd/xlf-bench's -clock step mode and the determinism
// tests use it.
func NewStepEnv(seed int64) *Env {
	factory := func() Clock { return StepClock(time.Millisecond) }
	return &Env{Seed: seed, Clock: factory(), ClockFactory: factory}
}

// Fork returns an independent child environment: same seed and worker
// budget, with a fresh clock from ClockFactory when one is present. The
// scheduler forks once per experiment and Sweep once per sweep point, so
// no two goroutines ever share a clock closure.
func (e *Env) Fork() *Env {
	out := &Env{Seed: e.Seed, Clock: e.Clock, ClockFactory: e.ClockFactory, Workers: e.Workers}
	if e.ClockFactory != nil {
		out.Clock = e.ClockFactory()
	}
	if e.trace != nil {
		out.trace = e.trace.fork()
	}
	if e.telemetry != nil {
		out.telemetry = e.telemetry.fork()
	}
	return out
}

// Rand returns a fresh deterministic generator for the experiment's seed.
// Each call restarts the stream, so experiments cannot leak RNG state into
// one another and single-experiment runs match full-suite runs.
func (e *Env) Rand() *rand.Rand { return rand.New(rand.NewSource(e.Seed)) }

// timeSection runs f and returns its elapsed duration on the env clock.
func (e *Env) timeSection(f func()) time.Duration {
	t0 := e.Clock()
	f()
	return e.Clock() - t0
}
