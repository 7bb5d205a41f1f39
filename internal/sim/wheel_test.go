package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The timer wheel must be observationally identical to the textbook
// binary-heap scheduler it replaced: same execution order (at, then
// scheduling seq), same clock movement, same cancellation semantics.
// The tests here run arbitrary schedule/cancel/nested-schedule programs
// against both and require byte-identical logs.

// refKernel is the reference implementation: the pre-wheel scheduler,
// a straight container/heap min-heap ordered by (at, seq).
type refKernel struct {
	now time.Duration
	seq uint64
	h   refHeap
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)         { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)           { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any             { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (k *refKernel) Now() time.Duration { return k.now }

func (k *refKernel) Schedule(delay time.Duration, fn func()) func() {
	if delay < 0 {
		delay = 0
	}
	at := k.now + delay
	k.seq++
	e := &refEvent{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.h, e)
	return func() { e.canceled = true }
}

func (k *refKernel) Run(until time.Duration) {
	if until < k.now {
		return
	}
	for len(k.h) > 0 && k.h[0].at <= until {
		e := heap.Pop(&k.h).(*refEvent)
		if e.canceled {
			continue
		}
		k.now = e.at
		e.fn()
	}
	if k.now < until {
		k.now = until
	}
}

// scheduler is the surface the differential driver needs from either
// implementation.
type scheduler interface {
	Now() time.Duration
	Schedule(delay time.Duration, fn func()) (cancel func())
	Run(until time.Duration)
}

// wheelAdapter narrows *Kernel to the driver surface.
type wheelAdapter struct{ k *Kernel }

func (w wheelAdapter) Now() time.Duration { return w.k.Now() }
func (w wheelAdapter) Schedule(delay time.Duration, fn func()) func() {
	h := w.k.Schedule(delay, "diff", fn)
	return h.Cancel
}
func (w wheelAdapter) Run(until time.Duration) {
	w.k.Run(until)
}

// runProgram interprets data as a schedule/cancel program against s and
// returns the execution log. Every decision depends only on the program
// bytes and the order events execute, so two observationally equivalent
// schedulers produce identical logs.
//
// Per event pair (d, c):
//   - d selects the delay class: ties (many events share a timestamp),
//     zero delays, negative delays (clamped), sparse delays spanning
//     several wheel levels, and far-future delays beyond wheelSpan.
//   - c bit 0: cancel an earlier event (chosen by c) right after
//     scheduling this one.
//   - c bit 1: from inside the callback, schedule a child event
//     (child delays include 0: same-tick batch refill).
//   - c bit 2: from inside the callback, cancel an event chosen by c —
//     exercising cancellation of already-queued events mid-dispatch.
func runProgram(s scheduler, data []byte) []string {
	var log []string
	var cancels []func()
	id := 0
	var schedule func(delay time.Duration, myID int, c byte)
	schedule = func(delay time.Duration, myID int, c byte) {
		cancels = append(cancels, s.Schedule(delay, func() {
			log = append(log, fmt.Sprintf("%d@%d", myID, s.Now()))
			if c&2 != 0 {
				id++
				child := id
				childDelay := time.Duration(c%5) * 333 * time.Nanosecond
				schedule(childDelay, child, c>>3)
			}
			if c&4 != 0 && len(cancels) > 0 {
				cancels[int(c)%len(cancels)]()
			}
		}))
	}
	for i := 0; i+1 < len(data); i += 2 {
		d, c := data[i], data[i+1]
		var delay time.Duration
		switch d % 8 {
		case 0, 1: // dense ties
			delay = time.Duration(d%4) * time.Microsecond
		case 2: // zero delay
			delay = 0
		case 3: // negative, clamped to now
			delay = -time.Duration(d) * time.Millisecond
		case 4, 5: // spans several wheel levels
			delay = time.Duration(d) * 977 * time.Microsecond
		case 6: // near the top wheel levels
			delay = time.Duration(d) * 11 * time.Minute
		default: // beyond wheelSpan: the overflow far-future bucket
			delay = time.Duration(wheelSpan)*time.Nanosecond + time.Duration(d)*time.Hour
		}
		id++
		schedule(delay, id, c)
		if c&1 != 0 && len(cancels) > 0 {
			cancels[int(c/2)%len(cancels)]()
		}
		// Interleave partial runs so programs exercise horizon stops,
		// re-entry, and scheduling relative to an advanced clock.
		switch c % 7 {
		case 0:
			s.Run(s.Now() + time.Duration(d)*time.Microsecond)
		case 1:
			s.Run(s.Now()) // zero-width run at the current instant
		}
	}
	// Drain everything, including far-future events, in two hops.
	s.Run(200 * time.Hour)
	s.Run(1000 * time.Hour)
	log = append(log, fmt.Sprintf("end@%d", s.Now()))
	return log
}

// diffOne runs one program against both schedulers and reports the first
// divergence.
func diffOne(t *testing.T, data []byte) {
	t.Helper()
	ref := runProgram(&refKernel{}, data)
	got := runProgram(wheelAdapter{NewKernel(1)}, data)
	if len(ref) != len(got) {
		t.Fatalf("log lengths diverge: wheel %d, heap %d\nprogram: %x", len(got), len(ref), data)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("logs diverge at %d: wheel %q, heap %q\nprogram: %x", i, got[i], ref[i], data)
		}
	}
}

// TestWheelMatchesReferenceHeap drives directed programs covering each
// delay class and cancellation pattern, then a corpus of random programs.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	directed := [][]byte{
		{},                             // empty program
		{0, 0, 0, 0, 1, 0, 2, 0},       // dense ties, all dispatched in one batch
		{2, 2, 2, 2, 2, 2},             // zero-delay chains with nested children
		{7, 0, 15, 0, 23, 0},           // far-future only: overflow bucket + rescan
		{7, 2, 0, 2, 4, 2},             // far-future next to dense, with children
		{3, 5, 3, 5, 3, 5},             // negative delays, cancels mid-stream
		{4, 7, 5, 7, 6, 7, 4, 7},       // multi-level spread, cancel-heavy
		{6, 1, 6, 3, 6, 5, 6, 7},       // top-level buckets with every cancel bit
		{0, 6, 1, 6, 2, 6, 7, 6, 4, 6}, // children + mid-dispatch cancels everywhere
	}
	for i, p := range directed {
		p := p
		t.Run(fmt.Sprintf("directed%d", i), func(t *testing.T) { diffOne(t, p) })
	}

	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 300; n++ {
		p := make([]byte, rng.Intn(120)*2)
		rng.Read(p)
		diffOne(t, p)
	}
}

// FuzzKernelSchedule is the smoke-fuzz entry wired into scripts/check.sh:
// the fuzzer explores schedule/cancel programs and the differential
// oracle rejects any divergence from the reference heap.
func FuzzKernelSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0})
	f.Add([]byte{7, 2, 0, 2, 4, 2})
	f.Add([]byte{3, 5, 6, 7, 4, 1, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 240 {
			data = data[:240]
		}
		diffOne(t, data)
	})
}
