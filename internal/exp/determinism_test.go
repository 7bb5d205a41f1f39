// Each determinism property of the experiment suite has one owning test,
// and each compares whole rendered bytes:
//
//	property                                        owning test
//	same-seed replay of the report and each entry   TestSchedulerDeterminismMatrix
//	sequential equals parallel, full registry       TestSchedulerDeterminismMatrix
//	every registry entry renders its own section    TestResultIDsMatchRegistry
//	single-entry run equals its suite entry (RNG)   TestSingleRunMatchesSuite
//	forks share no clock                            TestEnvFork
//	forks share no tracer; artifact walk order      TestObservationTree
//	trace equal at -parallel 1 and 16 (E1)          TestTraceDeterminismMatrix
//	telemetry equal at -parallel 1 and 4 (E10)      TestTelemetryDeterminismMatrix
//	pool and sweep order and isolation              TestSchedulerOrderAndIsolation, TestSweep
//
// The parallel runs of the three matrices are their same-seed replays, so
// none runs its sequential case twice.

package exp

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"xlf/internal/obs"
)

// envFor returns an environment whose clock family is fake, so timed
// sections (Table III throughput, the E4 matching paths) report fixed
// durations and the rendered output carries no wall-clock noise. Forks
// mint fresh step clocks, so the env is safe at any parallelism.
func envFor(seed int64) *Env { return NewStepEnv(seed) }

// TestSchedulerDeterminismMatrix owns the full-report properties: for
// each seed, the report Run schedules on a worker pool must be
// byte-identical to the sequential one. Each experiment (and each inner
// sweep point) gets a forked Env with its own step clock and a restarted
// RNG stream, so neither pool interleaving nor sweep fan-out may leak into
// the rendered bytes. Each parallel report is a separate run compared
// byte for byte with the sequential one, so the matrix also pins that a
// same-seed replay of the full report, and of every experiment in it,
// reproduces it. One level per seed suffices: seed 3 runs at the widest
// pool and seed 11 at a narrow one. The sequential baselines come from
// sequentialRun, which TestResultIDsMatchRegistry and
// TestSingleRunMatchesSuite share.
func TestSchedulerDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite Run matrix in -short mode")
	}
	reg := Registry()
	for _, c := range []struct {
		seed     int64
		parallel int
	}{{3, 16}, {11, 4}} {
		t.Run(fmt.Sprintf("seed%d_parallel%d", c.seed, c.parallel), func(t *testing.T) {
			env := envFor(c.seed)
			env.Workers = c.parallel
			if got := Render(Run(env, reg)); got != Render(sequentialRun(c.seed)) {
				t.Errorf("parallel %d report differs from sequential at seed %d", c.parallel, c.seed)
			}
		})
	}
}

// TestSingleRunMatchesSuite pins Env.Rand's promise that a
// single-experiment run matches the same entry of a full-suite run: every
// fork restarts the seed's stream, so a generator shared across forks
// shifts each entry drawn after the first, even in a sequential run
// without -race. The entries are cheap ones: E3, E5 and E6 draw from
// Env.Rand, and E8 seeds its two homes on sweep forks.
func TestSingleRunMatchesSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite baseline in -short mode")
	}
	suite := sequentialRun(3)
	for i, ex := range Registry() {
		switch ex.ID {
		case "E3", "E5", "E6", "E8":
		default:
			continue
		}
		t.Run(ex.ID, func(t *testing.T) {
			if got, want := Run(envFor(3), []Experiment{ex})[0].String(), suite[i].String(); got != want {
				t.Errorf("single %s run differs from the full suite's:\n--- single ---\n%s\n--- suite ---\n%s", ex.ID, got, want)
			}
		})
	}
}

var (
	sequentialMu   sync.Mutex
	sequentialRuns = map[int64][]*Result{}
)

// sequentialRun returns the sequential full-registry results for seed
// under a step clock, running the registry once per seed per test binary
// so the tests that read a sequential baseline share it.
func sequentialRun(seed int64) []*Result {
	sequentialMu.Lock()
	defer sequentialMu.Unlock()
	if rs, ok := sequentialRuns[seed]; ok {
		return rs
	}
	rs := Run(envFor(seed), Registry())
	sequentialRuns[seed] = rs
	return rs
}

// observe runs one registry entry under a step clock at the given
// parallelism with tracing and telemetry as enabled by on, and returns
// the env's collected observations.
func observe(t *testing.T, id string, seed int64, parallel int, on func(*Env)) Observations {
	t.Helper()
	ex, ok := Lookup(id)
	if !ok {
		t.Fatalf("registry lost %s", id)
	}
	env := envFor(seed)
	env.Workers = parallel
	on(env)
	Run(env, []Experiment{ex})
	return env.Collect(ClockStep, id)
}

// traceE1 runs E1 with tracing on and returns the serialized
// xlf-trace/v1 artifact.
func traceE1(t *testing.T, seed int64, parallel int) []byte {
	t.Helper()
	o := observe(t, "E1", seed, parallel, (*Env).EnableTracing)
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, o.TraceMeta, o.Spans); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

// TestTraceDeterminismMatrix is the observability analogue of the
// Run matrix: with a step clock, the serialized trace of an E1 run
// must be byte-identical at -parallel 1 and 16, because the env forks its
// observation tree sequentially in dispatch order and WriteTrace
// renumbers span sequence numbers into file order. At 16 every E1 sweep
// point runs on its own worker, and the parallel run is also the
// same-seed replay.
func TestTraceDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("trace determinism matrix in -short mode")
	}
	baseline := traceE1(t, 7, 1)
	if got := traceE1(t, 7, 16); !bytes.Equal(baseline, got) {
		t.Error("parallel 16 E1 trace differs from sequential")
	}

	// The timeline must span the stack: device, netsim, sim, dpi, core and
	// xauth all emit spans during the composite campaign.
	meta, spans, err := obs.ReadTrace(bytes.NewReader(baseline))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if meta.Seed != 7 || meta.Clock != ClockStep {
		t.Errorf("trace meta = %+v, want seed 7 clock step", meta)
	}
	layers := map[string]bool{}
	for _, s := range spans {
		layers[s.Layer] = true
	}
	for _, want := range []string{obs.LayerDevice, obs.LayerNetsim, obs.LayerSim, obs.LayerDPI, obs.LayerCore, obs.LayerXAuth} {
		if !layers[want] {
			t.Errorf("E1 trace covers no %q spans (got layers %v)", want, layers)
		}
	}
}

// telemetryE10 runs E10 with telemetry on and returns the serialized
// xlf-metrics/v1 artifact.
func telemetryE10(t *testing.T, seed int64, parallel int) []byte {
	t.Helper()
	o := observe(t, "E10", seed, parallel, func(env *Env) { env.EnableTelemetry(time.Second) })
	var buf bytes.Buffer
	if err := obs.WriteMetrics(&buf, o.MetricsMeta, o.Windows, o.Dumps); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	return buf.Bytes()
}

// TestTelemetryDeterminismMatrix is the rollup analogue of the trace
// matrix: with a step clock, the serialized telemetry of an E10 run (the
// attack timeline included) must be byte-identical at -parallel 1 and 4,
// because sweep points fork the observation tree sequentially in dispatch
// order and each city runs on its own sim clock. At 4 each of E10's three
// scale points runs on its own worker, and the parallel run is also the
// same-seed replay.
func TestTelemetryDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry determinism matrix in -short mode")
	}
	baseline := telemetryE10(t, 7, 1)
	if got := telemetryE10(t, 7, 4); !bytes.Equal(baseline, got) {
		t.Error("parallel 4 E10 telemetry differs from sequential")
	}

	meta, windows, dumps, err := obs.ReadMetrics(bytes.NewReader(baseline))
	if err != nil {
		t.Fatalf("ReadMetrics: %v", err)
	}
	if meta.Seed != 7 || meta.Clock != ClockStep || meta.Interval != time.Second {
		t.Errorf("metrics meta = %+v, want seed 7 clock step interval 1s", meta)
	}
	// Three scale points, each a 60-window run, labelled in sweep order.
	wantSrcs := []string{"E10/1000", "E10/10000", "E10/50000"}
	srcs := []string{}
	for _, w := range windows {
		if len(srcs) == 0 || srcs[len(srcs)-1] != w.Src {
			srcs = append(srcs, w.Src)
		}
	}
	if fmt.Sprint(srcs) != fmt.Sprint(wantSrcs) {
		t.Errorf("window sources = %v, want %v", srcs, wantSrcs)
	}
	if len(windows) < 3*55 {
		t.Errorf("windows = %d, want ~180 (3 scales x 60s horizon / 1s)", len(windows))
	}
	if len(dumps) == 0 {
		t.Error("no flight-recorder dumps despite the attack timeline")
	}
}

// TestObservationTree pins the one walk behind every artifact: spans,
// windows and dumps come back depth-first in fork order whatever order
// the forks recorded in, eviction counts and the interval land in the
// headers, and telemetry alone leaves the tracer nil.
func TestObservationTree(t *testing.T) {
	env := NewStepEnv(4)
	env.EnableTelemetry(0)
	if env.Tracer() != nil || env.RollupInterval() != time.Second {
		t.Fatalf("telemetry-only env: tracer %v, interval %s", env.Tracer(), env.RollupInterval())
	}
	env.EnableTracing()
	a, b := env.Fork(), env.Fork()
	aa := a.Fork()
	for i, e := range []*Env{b, aa, a, env} {
		e.Tracer().EmitAt(time.Duration(i), obs.LayerSim, "event", "", "")
		tel := obs.NewTelemetry(nil, time.Second, 0)
		tel.Tick(time.Second)
		e.AttachTelemetry(fmt.Sprint(i), tel)
	}
	o := env.Collect(ClockStep, "test")
	var spans, srcs string
	for _, s := range o.Spans {
		spans += fmt.Sprint(int(s.Time))
	}
	for _, w := range o.Windows {
		srcs += w.Src
	}
	// Fork order is root, a, aa, b: recorded as 3, 2, 1, 0.
	if spans != "3210" || srcs != "3210" {
		t.Errorf("walk order: spans %q, window sources %q, want 3210", spans, srcs)
	}
	if o.TraceMeta.Seed != 4 || o.MetricsMeta.Interval != time.Second || o.MetricsMeta.Source != "test" {
		t.Errorf("headers = %+v / %+v", o.TraceMeta, o.MetricsMeta)
	}
}

// TestCollectCountsDroppedDumps overfills two flight recorders' dump
// budgets and reads the dropped dumps back from the metrics header,
// summed over the sources.
func TestCollectCountsDroppedDumps(t *testing.T) {
	env := NewStepEnv(1)
	env.EnableTelemetry(0)
	for i, over := range []int{3, 2} {
		tel := obs.NewTelemetry(nil, time.Second, 0)
		for w := 1; w <= obs.DefaultRecorderDumps+over; w++ {
			tel.Recorder.Trigger(time.Duration(w)*time.Second, obs.TriggerAlert)
			tel.Tick(time.Duration(w) * time.Second)
		}
		env.Fork().AttachTelemetry(fmt.Sprint(i), tel)
	}
	o := env.Collect(ClockStep, "test")
	if o.MetricsMeta.DroppedDumps != 5 || len(o.Dumps) != 2*obs.DefaultRecorderDumps {
		t.Errorf("dropped dumps = %d with %d dumps kept, want 5 and %d", o.MetricsMeta.DroppedDumps, len(o.Dumps), 2*obs.DefaultRecorderDumps)
	}
}

// TestStepClock pins the fake clock's contract: fixed advance per reading.
func TestStepClock(t *testing.T) {
	c := StepClock(time.Second)
	if got := c(); got != time.Second {
		t.Fatalf("first reading = %v, want 1s", got)
	}
	if got := c(); got != 2*time.Second {
		t.Fatalf("second reading = %v, want 2s", got)
	}
	if el := NewStepEnv(1).timeSection(func() {}); el != time.Millisecond {
		t.Fatalf("timeSection elapsed = %v, want 1ms", el)
	}
}

// TestEnvFork pins Fork's isolation contract: forks get independent
// clocks and keep the parent's seed and worker budget.
func TestEnvFork(t *testing.T) {
	env := NewStepEnv(1)
	env.Workers = 4
	a, b := env.Fork(), env.Fork()
	if got := a.clock(); got != time.Millisecond {
		t.Errorf("forked clock first reading = %v, want 1ms", got)
	}
	// b's clock must not have advanced with a's.
	if got := b.clock(); got != time.Millisecond {
		t.Errorf("sibling fork clock = %v, want independent 1ms", got)
	}
	if a.Workers != 4 || a.Seed != 1 {
		t.Errorf("fork lost fields: %+v", a)
	}
}
