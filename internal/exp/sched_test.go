package exp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// syntheticRegistry builds n cheap fake experiments whose results depend
// on the env (seed + clock), so pool interleaving bugs surface as wrong or
// racy output without paying for real simulations.
func syntheticRegistry(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:    fmt.Sprintf("S%d", i),
			Title: fmt.Sprintf("synthetic %d", i),
			Run: func(env *Env) *Result {
				r := &Result{ID: fmt.Sprintf("S%d", i), Title: fmt.Sprintf("synthetic %d", i)}
				rng := env.Rand()
				el := env.timeSection(func() {})
				r.Output = fmt.Sprintf("draw=%d elapsed=%s\n", rng.Intn(1_000_000), el)
				r.num("draw", float64(rng.Intn(1_000_000)))
				return r
			},
		}
	}
	return exps
}

// TestSchedulerOrderAndIsolation runs a synthetic registry through Run at several pool
// sizes and requires bit-identical, input-ordered results every time —
// the worker pool's core contract. Under -race this is also the pool's
// data-race probe.
func TestSchedulerOrderAndIsolation(t *testing.T) {
	exps := syntheticRegistry(64)
	baselineEnv := NewStepEnv(9)
	baseline := Run(baselineEnv, exps)
	for i, r := range baseline {
		if want := fmt.Sprintf("S%d", i); r.ID != want {
			t.Fatalf("sequential result %d is %s, want %s", i, r.ID, want)
		}
	}
	for _, parallel := range []int{2, 4, 16, 128} {
		parallel := parallel
		t.Run(fmt.Sprintf("parallel%d", parallel), func(t *testing.T) {
			env := NewStepEnv(9)
			env.Workers = parallel
			got := Run(env, exps)
			if len(got) != len(baseline) {
				t.Fatalf("got %d results, want %d", len(got), len(baseline))
			}
			for i := range got {
				if got[i].String() != baseline[i].String() {
					t.Errorf("result %d differs at parallel %d:\n%s\nvs\n%s",
						i, parallel, got[i].String(), baseline[i].String())
				}
			}
		})
	}
}

// TestSchedulerOverlapsWork proves the pool actually runs experiments
// concurrently: with sleeping jobs, the peak number of in-flight runs must
// exceed one. (Wall-clock speedup is asserted in CI on a multi-core
// runner; in-flight depth is the core-count-independent signal.)
func TestSchedulerOverlapsWork(t *testing.T) {
	var inflight, peak atomic.Int64
	exps := make([]Experiment, 8)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID: fmt.Sprintf("S%d", i),
			Run: func(env *Env) *Result {
				cur := inflight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				inflight.Add(-1)
				return &Result{ID: fmt.Sprintf("S%d", i)}
			},
		}
	}
	env := NewStepEnv(1)
	env.Workers = 4
	Run(env, exps)
	if p := peak.Load(); p < 2 {
		t.Errorf("peak in-flight experiments = %d, want >= 2 (pool did not overlap work)", p)
	}
}

// TestSchedulerSequentialFallbacks pins Run's clamps: Workers < 1 and envs
// without a clock factory must both degrade to a safe sequential run.
func TestSchedulerSequentialFallbacks(t *testing.T) {
	exps := syntheticRegistry(4)
	for name, env := range map[string]*Env{
		"workers0": NewStepEnv(2),
		// Must still clamp to 1: forks would share the clock.
		"no-factory-env": {Seed: 2, Clock: StepClock(time.Millisecond), Workers: 8},
	} {
		results := Run(env, exps)
		for i, r := range results {
			if r == nil || r.ID != fmt.Sprintf("S%d", i) {
				t.Fatalf("%s: bad result at %d: %+v", name, i, r)
			}
		}
	}
}

// TestSweep pins the inner-sweep helper: index order, fork isolation, and
// identical results at every worker count.
func TestSweep(t *testing.T) {
	point := func(i int, env *Env) string {
		return fmt.Sprintf("%d:%d:%s", i, env.Rand().Intn(1000), env.Clock())
	}
	seq := func() []string {
		env := NewStepEnv(5)
		return Sweep(env, 20, point)
	}()
	for i, s := range seq {
		if want := fmt.Sprintf("%d:", i); s[:len(want)] != want {
			t.Fatalf("sweep point %d out of order: %q", i, s)
		}
	}
	for _, workers := range []int{0, 1, 3, 16, 64} {
		env := NewStepEnv(5)
		env.Workers = workers
		got := Sweep(env, 20, point)
		for i := range got {
			if got[i] != seq[i] {
				t.Errorf("workers=%d point %d = %q, want %q", workers, i, got[i], seq[i])
			}
		}
	}
	if got := Sweep(NewStepEnv(1), 0, point); len(got) != 0 {
		t.Errorf("empty sweep returned %v", got)
	}

	// Stress: many short sweeps on a wide pool, so some workers start only
	// after the first one has drained every job. A worker that registers
	// with the WaitGroup inside its own goroutine then races Sweep's Wait,
	// which -race reports; repeating the sweep makes that near-certain.
	env := NewStepEnv(5)
	env.Workers = 8
	for round := 0; round < 300; round++ {
		got := Sweep(env, 8, func(i int, _ *Env) int { return i })
		for i, g := range got {
			if g != i {
				t.Fatalf("round %d: point %d = %d", round, i, g)
			}
		}
	}
}
