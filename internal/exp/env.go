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
// function of its Env. Build one with NewEnv or NewStepEnv.
type Env struct {
	Seed int64

	// ClockFactory supplies the env's clock and a fresh one for every
	// Fork. Clocks are stateful closures, so concurrent experiments must
	// not share one: Run forks the root Env per experiment (and Sweep per
	// sweep point), and each fork times on its own clock.
	ClockFactory func() Clock
	clock        Clock

	// Workers bounds the fan-out of Run and of inner parameter sweeps
	// (see Sweep). Zero or one means sequential.
	Workers int

	// tree, when non-nil, is this env's node in the observation tree: its
	// tracer (nil unless tracing is on) and the telemetry experiments
	// attached here. Forks hang child nodes off the parent in fork order,
	// and Sweep forks sequentially in index order, so the tree shape — and
	// therefore every collected artifact — is identical at any
	// parallelism.
	tree *obsNode
}

// obsNode is one env's observations plus its forked children, in fork
// order.
type obsNode struct {
	mu       sync.Mutex
	tracer   *obs.Tracer   // nil when tracing is off
	interval time.Duration // rollup window; 0 when telemetry is off
	sinks    []telemetrySink
	children []*obsNode
}

// telemetrySink is one attached run's telemetry under its source label.
type telemetrySink struct {
	label string
	tel   *obs.Telemetry
}

// fork creates a child node (with its own tracer when tracing is on).
// Safe for concurrent use; a deterministic child order requires forking
// from one goroutine, which Sweep does.
func (n *obsNode) fork() *obsNode {
	child := &obsNode{interval: n.interval}
	if n.tracer != nil {
		child.tracer = obs.NewTracer(0, nil)
	}
	n.mu.Lock()
	n.children = append(n.children, child)
	n.mu.Unlock()
	return child
}

// walk visits this node's tracer and sinks, then its children's,
// depth-first in fork order. It is the one rule that orders every
// artifact an env writes.
func (n *obsNode) walk(visit func(tr *obs.Tracer, sinks []telemetrySink)) {
	n.mu.Lock()
	sinks := append([]telemetrySink(nil), n.sinks...)
	children := append([]*obsNode(nil), n.children...)
	n.mu.Unlock()
	visit(n.tracer, sinks)
	for _, c := range children {
		c.walk(visit)
	}
}

// root returns the env's observation node, creating it on first use.
func (e *Env) root() *obsNode {
	if e.tree == nil {
		e.tree = &obsNode{}
	}
	return e.tree
}

// EnableTracing turns on span recording: this env and every env forked
// from it record into their own obs.DefaultCapacity ring. Call before
// Fork.
func (e *Env) EnableTracing() { e.root().tracer = obs.NewTracer(0, nil) }

// Tracer returns this env's span recorder, or nil when tracing is off —
// callers pass it straight into xlf.Options.Tracer either way.
func (e *Env) Tracer() *obs.Tracer {
	if e.tree == nil {
		return nil
	}
	return e.tree.tracer
}

// EnableTelemetry turns on telemetry: experiments in this env and every
// env forked from it build per-run obs.Telemetry stacks rolled up at the
// given sim-time interval (1s when interval <= 0) and register them via
// AttachTelemetry. Call before Fork.
func (e *Env) EnableTelemetry(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	e.root().interval = interval
}

// RollupInterval returns the telemetry window length, or 0 when
// telemetry is off — experiments use it as the enablement check.
func (e *Env) RollupInterval() time.Duration {
	if e.tree == nil {
		return 0
	}
	return e.tree.interval
}

// AttachTelemetry registers one run's telemetry under a source label
// (e.g. "E10/1000"). The label is stamped into each collected window and
// dump, so one telemetry file can carry several runs. No-op when
// telemetry is off or tel is nil.
func (e *Env) AttachTelemetry(label string, tel *obs.Telemetry) {
	if e.RollupInterval() == 0 || tel == nil {
		return
	}
	e.tree.mu.Lock()
	e.tree.sinks = append(e.tree.sinks, telemetrySink{label: label, tel: tel})
	e.tree.mu.Unlock()
}

// Observations is what an env's subtree recorded, gathered by one walk:
// each node's spans, windows and dumps (stamped with their source labels)
// and then its children's, depth-first in fork order. The headers carry
// provenance, the rollup interval, the eviction counts and the dropped
// dumps (nonzero means the ring buffers or the dump budget dropped
// records); obs.WriteTrace and obs.WriteMetrics fill in the record
// counts.
type Observations struct {
	TraceMeta   obs.TraceMeta
	Spans       []obs.Span
	MetricsMeta obs.MetricsMeta
	Windows     []obs.WindowRecord
	Dumps       []obs.Dump
}

// Collect walks the env's observation tree. clock names the clock mode
// and source the producer; the seed is the env's. With a step clock the
// result is byte-stable across runs and -parallel levels.
func (e *Env) Collect(clock, source string) Observations {
	o := Observations{
		TraceMeta:   obs.TraceMeta{Seed: e.Seed, Clock: clock, Source: source},
		MetricsMeta: obs.MetricsMeta{Seed: e.Seed, Clock: clock, Source: source, Interval: e.RollupInterval()},
	}
	if e.tree == nil {
		return o
	}
	e.tree.walk(func(tr *obs.Tracer, sinks []telemetrySink) {
		o.Spans = append(o.Spans, tr.Spans()...)
		o.TraceMeta.Evicted += tr.Evicted()
		for _, s := range sinks {
			for _, w := range s.tel.Rollup.Windows() {
				w.Src = s.label
				o.Windows = append(o.Windows, w)
			}
			for _, d := range s.tel.Recorder.Dumps() {
				d.Src = s.label
				o.Dumps = append(o.Dumps, d)
			}
			o.MetricsMeta.Evicted += s.tel.Rollup.Evicted()
			o.MetricsMeta.DroppedDumps += s.tel.Recorder.DroppedDumps()
		}
	})
	return o
}

// NewEnv returns the standard environment: seeded randomness and
// wall-clock throughput timing.
func NewEnv(seed int64) *Env {
	return &Env{Seed: seed, ClockFactory: WallClock, clock: WallClock()}
}

// NewStepEnv returns a fully deterministic environment: seeded randomness
// and a fixed fake clock, so every timed section reports the same elapsed
// time and the rendered report is byte-identical across runs and across
// -parallel levels. cmd/xlf-bench's -clock step mode and the determinism
// tests use it.
func NewStepEnv(seed int64) *Env {
	factory := func() Clock { return StepClock(time.Millisecond) }
	return &Env{Seed: seed, ClockFactory: factory, clock: factory()}
}

// Fork returns an independent child environment: same seed and worker
// budget, with a fresh clock from ClockFactory. Run forks once per
// experiment and Sweep once per sweep point, so no two goroutines ever
// share a clock closure.
func (e *Env) Fork() *Env {
	out := &Env{Seed: e.Seed, ClockFactory: e.ClockFactory, clock: e.ClockFactory(), Workers: e.Workers}
	if e.tree != nil {
		out.tree = e.tree.fork()
	}
	return out
}

// Rand returns a fresh deterministic generator for the experiment's seed.
// Each call restarts the stream, so experiments cannot leak RNG state into
// one another and single-experiment runs match full-suite runs.
func (e *Env) Rand() *rand.Rand { return rand.New(rand.NewSource(e.Seed)) }

// timeSection runs f and returns its elapsed duration on the env clock.
func (e *Env) timeSection(f func()) time.Duration {
	t0 := e.clock()
	f()
	return e.clock() - t0
}
