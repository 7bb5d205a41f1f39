package obs

import (
	"sort"
	"sync"
	"time"
)

// DetectionHistPrefix prefixes the per-attack-class latency histograms a
// DetectionTracker registers, so rollup windows and snapshot renderers
// can recognise them ("detect.latency_ns.mirai", ...). The suffix is the
// attack class; values are nanoseconds.
const DetectionHistPrefix = "detect.latency_ns."

// Counter names the tracker maintains in its registry.
const (
	// DetectInjected counts attack injections marked by the harnesses.
	DetectInjected = "detect.injected"
	// DetectDetected counts injections matched to a first alert.
	DetectDetected = "detect.detected"
	// DetectSLOBreach counts detections whose latency exceeded the SLO.
	DetectSLOBreach = "detect.slo_breach"
)

// DefaultDetectionSLO is the detection-latency objective used when a
// tracker is built with slo <= 0. Two simulated seconds is comfortably
// above the Core's E1 correlation windows and tight enough that a stuck
// detector breaches immediately.
const DefaultDetectionSLO = 2 * time.Second

// pendingInjection is one injected-but-undetected attack instance.
type pendingInjection struct {
	at    time.Duration
	class string
	hist  *Histogram
}

// DetectionStat is one attack class's latency summary from Stats.
type DetectionStat struct {
	Class string
	Count uint64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// DetectionTracker measures end-to-end detection latency: the harnesses
// mark the sim instant an attack touches a victim device (Inject), the
// Core (or a harness detector) reports the first alert naming that
// device (Observe), and the difference lands in a per-attack-class
// histogram registered as DetectionHistPrefix+class — so rollup windows
// carry p50/p95/p99 detection latency with no extra wiring. Latencies
// above the SLO bump DetectSLOBreach and fire the flight recorder's
// TriggerSLOBreach. A nil *DetectionTracker disables everything.
type DetectionTracker struct {
	mu      sync.Mutex
	slo     time.Duration
	reg     *Registry
	rec     *FlightRecorder
	pending map[string]pendingInjection

	injected *Counter
	detected *Counter
	breaches *Counter
}

// NewDetectionTracker builds a tracker registering its metrics in reg (a
// private registry when reg is nil) with the given latency SLO
// (DefaultDetectionSLO when slo <= 0).
func NewDetectionTracker(reg *Registry, slo time.Duration) *DetectionTracker {
	if reg == nil {
		reg = NewRegistry()
	}
	if slo <= 0 {
		slo = DefaultDetectionSLO
	}
	return &DetectionTracker{
		slo:      slo,
		reg:      reg,
		pending:  make(map[string]pendingInjection),
		injected: reg.Counter(DetectInjected),
		detected: reg.Counter(DetectDetected),
		breaches: reg.Counter(DetectSLOBreach),
	}
}

// SetRecorder binds the flight recorder that SLO breaches trigger.
// Nil-safe.
func (d *DetectionTracker) SetRecorder(rec *FlightRecorder) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.rec = rec
	d.mu.Unlock()
}

// SLO returns the configured latency objective. Nil-safe.
func (d *DetectionTracker) SLO() time.Duration {
	if d == nil {
		return 0
	}
	return d.slo
}

// Inject marks that an attack of the given class touched device at the
// given sim time. If the device already carries an undetected injection
// the earlier one is kept — the first alert on a device answers for the
// earliest attack against it, which is the conservative (largest) latency
// reading. Cold path: attacks are rare events. Nil-safe.
func (d *DetectionTracker) Inject(at time.Duration, class, device string) {
	if d == nil || device == "" {
		return
	}
	d.mu.Lock()
	d.injected.Inc()
	if _, dup := d.pending[device]; !dup {
		d.pending[device] = pendingInjection{
			at:    at,
			class: class,
			hist:  d.reg.Histogram(DetectionHistPrefix + class),
		}
	}
	d.mu.Unlock()
}

// Observe reports that an alert named device at the given sim time. When
// the device carries a pending injection, the latency is recorded in the
// class histogram and the injection cleared; latencies above the SLO bump
// the breach counter and fire the recorder. Reports whether an injection
// was matched. This is the hot-path half — alerts ride the Core ingest
// path — so it is one map lookup plus atomic adds, no allocation.
//
//xlf:hotpath
func (d *DetectionTracker) Observe(at time.Duration, device string) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	p, ok := d.pending[device]
	if !ok {
		d.mu.Unlock()
		return false
	}
	delete(d.pending, device)
	lat := at - p.at
	if lat < 0 {
		lat = 0
	}
	d.detected.Inc()
	p.hist.Observe(uint64(lat))
	if lat > d.slo {
		d.breaches.Inc()
		d.rec.Trigger(at, TriggerSLOBreach)
	}
	d.mu.Unlock()
	return true
}

// Pending returns how many injections await detection. Nil-safe.
func (d *DetectionTracker) Pending() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pending)
}

// Stats summarises every attack class's detection latency, sorted by
// class name. Quantiles carry the bucketed estimator's 2x error bound.
// Nil-safe.
func (d *DetectionTracker) Stats() []DetectionStat {
	if d == nil {
		return nil
	}
	snap := d.reg.Snapshot()
	var out []DetectionStat
	for _, h := range snap.Histograms {
		if len(h.Name) <= len(DetectionHistPrefix) ||
			h.Name[:len(DetectionHistPrefix)] != DetectionHistPrefix {
			continue
		}
		out = append(out, DetectionStat{
			Class: h.Name[len(DetectionHistPrefix):],
			Count: h.Count,
			P50:   time.Duration(QuantileBuckets(h.Buckets, 0.50)),
			P95:   time.Duration(QuantileBuckets(h.Buckets, 0.95)),
			P99:   time.Duration(QuantileBuckets(h.Buckets, 0.99)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
