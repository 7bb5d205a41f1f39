package exp

import "sync"

// Run executes the given experiments on Sweep's worker pool (env.Workers
// wide) and returns their results in input order. Every experiment runs
// under its own forked Env (fresh clock, restarted RNG streams), so a
// parallel schedule renders byte-identically to the sequential one
// whenever the env's clock family is deterministic.
func Run(env *Env, exps []Experiment) []*Result {
	return Sweep(env, len(exps), func(i int, env *Env) *Result { return exps[i].Run(env) })
}

// workers clamps the pool size for n jobs: never more workers than jobs,
// and at least one.
func (e *Env) workers(n int) int {
	return min(max(e.Workers, 1), n)
}

// Sweep fans n jobs — Run's experiments, or an experiment's inner
// parameter grid (E1's ablation configs, E2's shaping intensities, ...) —
// across the env's worker budget and returns the results in index order.
// Every job receives its own forked Env, so jobs are isolated from each
// other and the fan-out cannot change rendered output.
func Sweep[T any](env *Env, n int, point func(i int, env *Env) T) []T {
	out := make([]T, n)
	// Fork every child up front, sequentially, in index order: fork order
	// decides the observation tree's child order, so it must follow the
	// job index, not which worker goroutine grabs which job.
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = env.Fork()
	}
	w := env.workers(n)
	if w <= 1 {
		for i := range out {
			out[i] = point(i, envs[i])
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = point(i, envs[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
