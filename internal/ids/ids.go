// Package ids implements XLF's malicious-activity identification (§IV-B3):
// streaming detectors over packet metadata for the activities the Nokia
// threat report attributes to IoT botnets — scanning, DDoS floods, C&C
// beaconing — plus telnet credential brute-forcing, the Mirai recruitment
// vector. Detectors see only observer-legal metadata (netsim.PacketRecord).
package ids

import (
	"fmt"
	"math"
	"time"

	"xlf/internal/netsim"
)

// Alert is one detection.
type Alert struct {
	Time     time.Duration
	Detector string
	Src      netsim.Addr
	Dst      netsim.Addr
	Detail   string
	// Confidence in (0,1].
	Confidence float64
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s src=%s dst=%s conf=%.2f %s", a.Time, a.Detector, a.Src, a.Dst, a.Confidence, a.Detail)
}

// Detector consumes packet records and emits alerts.
type Detector interface {
	// Name identifies the detector in alerts and reports.
	Name() string
	// Process consumes one record and returns any alerts it triggers.
	// Records arrive in non-decreasing Time — the gateway taps and a
	// replayed capture see them in delivery order, and nothing sorts for
	// the caller — so a detector may drop per-key state that has aged out
	// of its window: no later record can read it.
	Process(rec netsim.PacketRecord) []Alert
}

// ScanDetector flags sources touching many distinct (dst, port) pairs in a
// sliding window — the fan-out signature of Mirai's random scanning.
//
// Each source keeps its touches in arrival order and a count per distinct
// target, both updated on push and on evict, so a record costs O(1)
// amortised and the distinct count is the size of the count map. Once per
// window, sources whose newest touch and last alert have aged out are
// dropped.
type ScanDetector struct {
	// Window is the observation window.
	Window time.Duration
	// FanOut is the distinct-target threshold.
	FanOut int

	sources map[netsim.Addr]*scanState
	free    freeList[scanState]
	sweepAt time.Duration
}

// scanTarget is one (dst, port) a source touched.
type scanTarget struct {
	dst  netsim.Addr
	port int
}

type targetSeen struct {
	t      time.Duration
	target scanTarget
}

type scanState struct {
	seen      fifo[targetSeen]
	counts    map[scanTarget]int
	alerted   bool
	lastAlert time.Duration
}

var _ Detector = (*ScanDetector)(nil)

// NewScanDetector returns a detector with the given window and fan-out
// threshold.
func NewScanDetector(window time.Duration, fanOut int) *ScanDetector {
	return &ScanDetector{
		Window:  window,
		FanOut:  fanOut,
		sources: make(map[netsim.Addr]*scanState),
	}
}

// Name implements Detector.
func (d *ScanDetector) Name() string { return "scan" }

// Process implements Detector.
func (d *ScanDetector) Process(rec netsim.PacketRecord) []Alert {
	d.sweep(rec.Time)
	st := d.sources[rec.Src]
	if st == nil {
		if st = d.free.get(); st == nil {
			st = &scanState{counts: make(map[scanTarget]int)}
		}
		d.sources[rec.Src] = st
	}
	target := scanTarget{dst: rec.Dst, port: rec.DstPort}
	st.seen.push(targetSeen{t: rec.Time, target: target})
	st.counts[target]++
	// Evict outside the window.
	for st.seen.len() > 0 && st.seen.front().t < rec.Time-d.Window {
		old := st.seen.pop().target
		if n := st.counts[old] - 1; n > 0 {
			st.counts[old] = n
		} else {
			delete(st.counts, old)
		}
	}

	distinct := len(st.counts)
	if distinct < d.FanOut {
		return nil
	}
	// Rate-limit: one alert per source per window.
	if st.alerted && rec.Time-st.lastAlert < d.Window {
		return nil
	}
	st.alerted, st.lastAlert = true, rec.Time
	conf := math.Min(1, float64(distinct)/float64(2*d.FanOut))
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d distinct targets in %s", distinct, d.Window),
		Confidence: math.Max(conf, 0.5),
	}}
}

// sweep drops, once per window, every source whose newest touch and last
// alert are older than the window: its next record (no earlier than now)
// evicts every touch and may alert, exactly as for a source never seen.
func (d *ScanDetector) sweep(now time.Duration) {
	cut, ok := sweepDue(&d.sweepAt, now, d.Window)
	if !ok {
		return
	}
	for src, st := range d.sources {
		if st.seen.len() > 0 && st.seen.back().t >= cut || st.alerted && st.lastAlert >= cut {
			continue
		}
		delete(d.sources, src)
		st.seen.reset()
		clear(st.counts)
		st.alerted = false
		d.free.put(st)
	}
}

// FloodDetector flags destinations receiving traffic far above baseline —
// volumetric DDoS. It tracks per-destination packet rates in fixed bins.
// An expired bin is reset in place, and once per floodIdleBins bins
// destinations whose bin and last alert are both that old are dropped.
type FloodDetector struct {
	// Bin is the rate-measurement bin.
	Bin time.Duration
	// PacketsPerBin is the alert threshold.
	PacketsPerBin int
	// MinSources additionally requires this many distinct sources
	// (distributed-ness); 1 disables the requirement.
	MinSources int

	bins    map[netsim.Addr]*floodBin
	free    freeList[floodBin]
	sweepAt time.Duration
}

type floodBin struct {
	start     time.Duration
	count     int
	sources   map[netsim.Addr]struct{}
	alerted   bool
	lastAlert time.Duration
}

var _ Detector = (*FloodDetector)(nil)

// NewFloodDetector returns a volumetric detector.
func NewFloodDetector(bin time.Duration, packetsPerBin, minSources int) *FloodDetector {
	return &FloodDetector{
		Bin: bin, PacketsPerBin: packetsPerBin, MinSources: minSources,
		bins: make(map[netsim.Addr]*floodBin),
	}
}

// Name implements Detector.
func (d *FloodDetector) Name() string { return "ddos-flood" }

// Process implements Detector.
func (d *FloodDetector) Process(rec netsim.PacketRecord) []Alert {
	d.sweep(rec.Time)
	b := d.bins[rec.Dst]
	if b == nil {
		if b = d.free.get(); b == nil {
			b = &floodBin{sources: make(map[netsim.Addr]struct{})}
		}
		b.start = rec.Time
		d.bins[rec.Dst] = b
	} else if rec.Time-b.start >= d.Bin {
		b.start, b.count = rec.Time, 0
		clear(b.sources)
	}
	b.count++
	b.sources[rec.Src] = struct{}{}
	if b.count < d.PacketsPerBin || len(b.sources) < d.MinSources {
		return nil
	}
	if b.alerted && rec.Time-b.lastAlert < d.Bin {
		return nil
	}
	b.alerted, b.lastAlert = true, rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d pkts from %d sources within %s", b.count, len(b.sources), d.Bin),
		Confidence: math.Min(1, float64(b.count)/float64(2*d.PacketsPerBin)+0.5),
	}}
}

// floodIdleBins is the sweep's idle horizon in bins. Home destinations
// recur every few seconds, so a one-bin horizon would drop and re-insert
// them on nearly every bin; any horizon of a bin or more keeps the alerts.
const floodIdleBins = 30

// sweep drops, once per idle horizon, every destination whose bin
// started, and whose last alert fired, that horizon or more ago: its next
// record opens a fresh bin and may alert, exactly as for one never seen.
func (d *FloodDetector) sweep(now time.Duration) {
	idle := floodIdleBins * d.Bin
	if _, ok := sweepDue(&d.sweepAt, now, idle); !ok {
		return
	}
	for dst, b := range d.bins {
		if now-b.start < idle || b.alerted && now-b.lastAlert < idle {
			continue
		}
		delete(d.bins, dst)
		clear(b.sources)
		b.count, b.alerted = 0, false
		d.free.put(b)
	}
}

// BeaconDetector flags (src, dst) pairs with highly regular inter-arrival
// times over many packets — C&C keep-alive beaconing.
//
// Its state is not swept: a pair alerts at most once for the whole run,
// and its intervals deliberately span idle gaps of any length, so
// forgetting an idle pair would change which pairs alert and when.
// Bounding it is a change of detection semantics, not of representation.
type BeaconDetector struct {
	// MinSamples is how many intervals must be seen before judging.
	MinSamples int
	// MaxCV is the maximum coefficient of variation (stddev/mean) for the
	// intervals to count as machine-regular.
	MaxCV float64

	pairs map[beaconKey]*beaconState
}

type beaconKey struct {
	src, dst netsim.Addr
}

type beaconState struct {
	last      time.Duration
	intervals []float64
	alerted   bool
}

var _ Detector = (*BeaconDetector)(nil)

// NewBeaconDetector returns a beaconing detector.
func NewBeaconDetector(minSamples int, maxCV float64) *BeaconDetector {
	return &BeaconDetector{
		MinSamples: minSamples, MaxCV: maxCV,
		pairs: make(map[beaconKey]*beaconState),
	}
}

// Name implements Detector.
func (d *BeaconDetector) Name() string { return "cc-beacon" }

// Process implements Detector.
func (d *BeaconDetector) Process(rec netsim.PacketRecord) []Alert {
	k := beaconKey{rec.Src, rec.Dst}
	st := d.pairs[k]
	if st == nil {
		st = &beaconState{}
		d.pairs[k] = st
	} else if !st.alerted {
		// An alerted pair never reads its intervals again.
		iv := append(st.intervals, (rec.Time - st.last).Seconds())
		if len(iv) > 4*d.MinSamples {
			iv = append(iv[:0], iv[len(iv)-2*d.MinSamples:]...)
		}
		st.intervals = iv
	}
	st.last = rec.Time

	iv := st.intervals
	if len(iv) < d.MinSamples || st.alerted {
		return nil
	}
	mean, sd := meanStd(iv)
	if mean <= 0 {
		return nil
	}
	cv := sd / mean
	if cv > d.MaxCV {
		return nil
	}
	st.alerted = true
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("period=%.2fs cv=%.3f over %d intervals", mean, cv, len(iv)),
		Confidence: math.Min(1, 1-cv/d.MaxCV+0.5),
	}}
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// BruteForceDetector flags repeated small packets to authentication ports
// (telnet/ssh/http-auth) from one source — credential stuffing. Once per
// window, pairs whose newest attempt and last alert are older than the
// window are dropped.
type BruteForceDetector struct {
	Window   time.Duration
	Attempts int
	// Ports lists authentication service ports to watch.
	Ports map[int]bool

	pairs   map[beaconKey]*bruteState
	free    freeList[bruteState]
	sweepAt time.Duration
}

type bruteState struct {
	attempts  fifo[time.Duration]
	alerted   bool
	lastAlert time.Duration
}

var _ Detector = (*BruteForceDetector)(nil)

// NewBruteForceDetector returns a credential-stuffing detector watching
// telnet (23), ssh (22) and http (80) by default.
func NewBruteForceDetector(window time.Duration, attempts int) *BruteForceDetector {
	return &BruteForceDetector{
		Window: window, Attempts: attempts,
		Ports: map[int]bool{22: true, 23: true, 80: true},
		pairs: make(map[beaconKey]*bruteState),
	}
}

// Name implements Detector.
func (d *BruteForceDetector) Name() string { return "bruteforce" }

// Process implements Detector.
func (d *BruteForceDetector) Process(rec netsim.PacketRecord) []Alert {
	if !d.Ports[rec.DstPort] {
		return nil
	}
	d.sweep(rec.Time)
	k := beaconKey{rec.Src, rec.Dst}
	st := d.pairs[k]
	if st == nil {
		if st = d.free.get(); st == nil {
			st = &bruteState{}
		}
		d.pairs[k] = st
	}
	st.attempts.push(rec.Time)
	for st.attempts.len() > 0 && st.attempts.front() < rec.Time-d.Window {
		st.attempts.pop()
	}
	n := st.attempts.len()
	if n < d.Attempts {
		return nil
	}
	if st.alerted && rec.Time-st.lastAlert < d.Window {
		return nil
	}
	st.alerted, st.lastAlert = true, rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d auth attempts to port %d within %s", n, rec.DstPort, d.Window),
		Confidence: math.Min(1, float64(n)/float64(2*d.Attempts)+0.4),
	}}
}

// sweep drops, once per window, every pair whose newest attempt and last
// alert are older than the window, as ScanDetector.sweep does for sources.
func (d *BruteForceDetector) sweep(now time.Duration) {
	cut, ok := sweepDue(&d.sweepAt, now, d.Window)
	if !ok {
		return
	}
	for k, st := range d.pairs {
		if st.attempts.len() > 0 && st.attempts.back() >= cut || st.alerted && st.lastAlert >= cut {
			continue
		}
		delete(d.pairs, k)
		st.attempts.reset()
		st.alerted = false
		d.free.put(st)
	}
}

// sweepDue reports whether a sweep over a window is due at now and, if
// so, schedules the next one a window later and returns the eviction cut
// now-window. It never sweeps for a non-positive window, or where now-window
// would overflow.
func sweepDue(at *time.Duration, now, window time.Duration) (time.Duration, bool) {
	if window <= 0 || now < *at {
		return 0, false
	}
	*at = now + window
	cut := now - window
	return cut, cut < now
}

// maxFree caps each detector's free list: enough released states to
// serve a home's keys that fall idle and return, while the state of a
// large burst of one-off keys goes back to the garbage collector.
const maxFree = 256

// freeList holds swept per-key states, already reset, for reuse.
type freeList[T any] []*T

// get returns a reset state, or nil when the list is empty.
func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		return nil
	}
	st := (*f)[n-1]
	*f = (*f)[:n-1]
	return st
}

func (f *freeList[T]) put(st *T) {
	if len(*f) < maxFree {
		*f = append(*f, st)
	}
}

// fifo is a queue whose live entries are buf[head:]. push moves the live
// entries to the front once the dead prefix is at least half the slice,
// so a queue in steady state reuses its array and each entry moves O(1)
// times on average.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && 2*q.head >= len(q.buf) {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	return v
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }
func (q *fifo[T]) front() T { return q.buf[q.head] }
func (q *fifo[T]) back() T  { return q.buf[len(q.buf)-1] }
func (q *fifo[T]) reset()   { q.buf, q.head = q.buf[:0], 0 }

// Pipeline fans records out to several detectors and collects alerts.
type Pipeline struct {
	detectors []Detector
	alerts    []Alert
}

// NewPipeline composes detectors.
func NewPipeline(ds ...Detector) *Pipeline {
	return &Pipeline{detectors: ds}
}

// DefaultPipeline returns the standard XLF network-layer detector set
// tuned for the testbed's time scales.
func DefaultPipeline() *Pipeline {
	return NewPipeline(
		NewScanDetector(10*time.Second, 12),
		NewFloodDetector(time.Second, 150, 3),
		NewBeaconDetector(8, 0.12),
		NewBruteForceDetector(30*time.Second, 8),
	)
}

// Process feeds one record through all detectors. A record that raises no
// alert allocates nothing.
func (p *Pipeline) Process(rec netsim.PacketRecord) []Alert {
	var out []Alert
	for _, d := range p.detectors {
		out = append(out, d.Process(rec)...)
	}
	p.alerts = append(p.alerts, out...)
	return out
}

// Alerts returns every alert seen so far (a copy).
func (p *Pipeline) Alerts() []Alert { return append([]Alert(nil), p.alerts...) } //xlf:allow-testonly bench/_perf counts them
