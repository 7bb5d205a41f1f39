// Package pairfix exercises the pairing rule: receiver-paired mutex
// critical sections and value-paired trace regions and timers.
package pairfix

import (
	"errors"
	"sync"
	"time"

	"example.com/m/trace"
)

type guarded struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
}

func lockBalanced(g *guarded, k string) int {
	g.mu.Lock()
	v := g.vals[k]
	g.mu.Unlock()
	return v
}

func lockDeferred(g *guarded, k string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vals[k]
}

func lockLeakOnReturn(g *guarded, k string) (int, error) {
	g.mu.Lock() // want "\[pairing\] g\.mu\.Lock\(\) is not paired with g\.mu\.Unlock\(\)"
	v, ok := g.vals[k]
	if !ok {
		return 0, errors.New("missing")
	}
	g.mu.Unlock()
	return v, nil
}

func lockLeakOnPanic(g *guarded, k string) int {
	g.mu.Lock() // want "g\.mu\.Lock\(\) is not paired .* panic exit"
	v, ok := g.vals[k]
	if !ok {
		panic("missing")
	}
	g.mu.Unlock()
	return v
}

func rlockLeak(g *guarded, k string) (int, bool) {
	g.rw.RLock() // want "g\.rw\.RLock\(\) is not paired with g\.rw\.RUnlock\(\)"
	v, ok := g.vals[k]
	if !ok {
		return 0, false
	}
	g.rw.RUnlock()
	return v, true
}

func crossedPair(a, b *sync.Mutex) {
	a.Lock() // want "a\.Lock\(\) is not paired with a\.Unlock\(\)"
	b.Unlock()
}

// withLock releases through a closure handed to a helper: the closure
// discharges the obligation.
func withLock(g *guarded, fn func()) {
	g.mu.Lock()
	runLocked(fn, func() { g.mu.Unlock() })
}

func runLocked(fn, unlock func()) {
	fn()
	unlock()
}

// lockHandedOff deliberately returns while holding the lock; the caller
// unlocks.
//
//xlf:allow-pairing the caller unlocks
func lockHandedOff(g *guarded) {
	g.mu.Lock()
	g.vals["held"] = 1
}

func regionBalanced(tr *trace.Tracer) {
	r := tr.Start("svc", "op")
	r.End("ok")
}

func regionDeferred(tr *trace.Tracer) error {
	r := tr.Start("svc", "op")
	defer r.End("done")
	return work()
}

func regionLeak(tr *trace.Tracer, fail bool) error {
	r := tr.Start("svc", "op") // want "trace region .r. from tr\.Start is not released with End/EndAt"
	if fail {
		return errors.New("fail")
	}
	r.End("ok")
	return nil
}

func regionDiscarded(tr *trace.Tracer) {
	tr.Start("svc", "op") // want "trace region from tr\.Start is discarded"
}

func regionBlank(tr *trace.Tracer) {
	_ = tr.Start("svc", "op") // want "trace region from tr\.Start is discarded"
}

// regionEscapes hands the obligation to the caller.
func regionEscapes(tr *trace.Tracer) *trace.Region {
	r := tr.Start("svc", "op")
	return r
}

// regionHandoff transfers the obligation to finish.
func regionHandoff(tr *trace.Tracer) {
	r := tr.Start("svc", "op")
	finish(r)
}

func finish(r *trace.Region) { r.End("ok") }

func work() error { return nil }

func timerLeak(d time.Duration) {
	tm := time.NewTimer(d) // want "timer .tm. from time\.NewTimer is not released with Stop"
	<-tm.C
}

func timerDeferred(d time.Duration) {
	tm := time.NewTimer(d)
	defer tm.Stop()
	<-tm.C
}

func tickerStopped(d time.Duration, n int) {
	tk := time.NewTicker(d)
	for i := 0; i < n; i++ {
		<-tk.C
	}
	tk.Stop()
}

func tickerLeak(d time.Duration, done chan struct{}) {
	tk := time.NewTicker(d) // want "ticker .tk. from time\.NewTicker is not released with Stop"
	select {
	case <-tk.C:
	case <-done:
	}
}
