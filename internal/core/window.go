package core

import "time"

// maxHist bounds per-device history: a detector misfiring at line rate
// (or an adversary flooding a sensor) must not grow the Core's state
// without bound. The newest signals carry the evidence that matters.
const maxHist = 2048

// numLayers is the number of XLF layers; layerIndex maps each to a slot.
const numLayers = 3

// layerIndex returns the slot of one of the three XLF layers, in their
// sorted order (Device, Network, Service), or -1 for any other name.
func layerIndex(l LayerName) int {
	switch l {
	case Device:
		return 0
	case Network:
		return 1
	case Service:
		return 2
	}
	return -1
}

// layerNames is layerIndex's inverse.
var layerNames = [numLayers]LayerName{Device, Network, Service}

// ring is a FIFO circular buffer. Its capacity is a power of two that
// doubles on demand, so a device that signals rarely keeps a few slots
// and only a flooded one reaches maxHist.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// at returns the i-th element from the front.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) pushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	*r.at(r.n) = v
	r.n++
}

// popFront drops the oldest element, clearing its slot so evicted
// signals do not pin their strings.
func (r *ring[T]) popFront() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

func (r *ring[T]) popBack() {
	var zero T
	*r.at(r.n - 1) = zero
	r.n--
}

func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf))) //xlf:allow-hotpath doubling growth is amortised to the window's peak size; steady state reuses the ring
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// appendTo appends the elements front to back.
func (r *ring[T]) appendTo(dst []T) []T {
	for i := 0; i < r.n; i++ {
		dst = append(dst, *r.at(i))
	}
	return dst
}

// peak is one max-deque entry: a retained signal's sequence number and
// its score clamped to [0, +Inf).
type peak struct {
	seq   uint64
	score float64
}

// devState is one device's correlation state. sigs is the retained
// window suffix: the newest ≤ maxHist signals not yet evicted by the
// prefix loop in push. Signals are numbered in arrival order; sigs holds
// sequence numbers [next-sigs.n, next). peaks[l] is a monotonic
// max-deque over the retained layer-l signals (scores strictly
// decreasing front to back), so the window's peak score and its set of
// layers are read in O(1).
type devState struct {
	sigs  ring[Signal]
	next  uint64
	peaks [numLayers]ring[peak]

	// lastAlert is the time of the device's last raised alert, which
	// starts the cooldown. alerts holds the alert times TokenLifetimeFor
	// counts, sorted: all of them up to four, then the two earliest and
	// the two latest (see recordAlert). nAlerts > 0 marks the device
	// flagged.
	lastAlert time.Duration
	alerts    [4]time.Duration
	nAlerts   int
	contained bool
}

// recordAlert notes an alert raised at t. Past four alerts the median of
// the five is dropped. TokenLifetimeFor only tells none, one or several
// recent alerts apart, and the ones it counts (now-t <= 5*Window, with
// now-t wrapping) are a prefix, a suffix, or both, of the sorted alert
// times, unless those times span more than 2^63+5*Window. So the two
// earliest and the two latest decide it.
func (d *devState) recordAlert(t time.Duration) {
	d.lastAlert = t
	var all [5]time.Duration
	n := copy(all[:], d.alerts[:d.nAlerts])
	i := n
	for ; i > 0 && all[i-1] > t; i-- {
		all[i] = all[i-1]
	}
	all[i] = t
	if n == len(d.alerts) {
		copy(all[2:], all[3:])
	} else {
		d.nAlerts++
	}
	copy(d.alerts[:], all[:])
}

// push adds a signal of layer slot li and evicts everything the window
// and the maxHist cap no longer retain.
func (d *devState) push(sig Signal, li int, window time.Duration) {
	// The front is evicted while older than the window before the new
	// signal: a prefix loop, so with non-monotone times an old signal
	// behind a newer one stays.
	cutoff := sig.Time - window
	for d.sigs.n > 0 && d.sigs.at(0).Time < cutoff {
		d.sigs.popFront()
	}
	d.next++
	// The new signal is itself evicted only when sig.Time-window
	// overflows; then the window is empty.
	kept := d.sigs.n > 0 || sig.Time >= cutoff
	if kept {
		if d.sigs.n == maxHist {
			d.sigs.popFront()
		}
		d.sigs.pushBack(sig)
	}
	// Deque entries leave with their signals: by sequence number, which
	// mirrors the ring's front exactly whatever the signal times.
	lo := d.next - uint64(d.sigs.n)
	for i := range d.peaks {
		q := &d.peaks[i]
		for q.n > 0 && q.at(0).seq < lo {
			q.popFront()
		}
	}
	if !kept {
		return
	}
	// Negative and NaN scores never raise the peak above its 0 floor.
	score := sig.Score
	if !(score > 0) {
		score = 0
	}
	q := &d.peaks[li]
	for q.n > 0 && q.at(q.n-1).score <= score {
		q.popBack()
	}
	q.pushBack(peak{seq: d.next - 1, score: score})
}

// peakScore returns the window's highest clamped score and how many
// layers have a retained signal.
func (d *devState) peakScore() (score float64, layers int) {
	for i := range d.peaks {
		if q := &d.peaks[i]; q.n > 0 {
			layers++
			if s := q.at(0).score; s > score {
				score = s
			}
		}
	}
	return score, layers
}
