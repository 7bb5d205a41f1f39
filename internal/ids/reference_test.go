package ids

// The detectors and pipeline exactly as they were before the O(1)
// rewrite, kept verbatim (renamed) as the reference that
// TestIDSMatchesReference and FuzzIDSProcess hold the production
// detectors to: a per-record fmt.Sprintf key and a fresh distinct-target
// map per scan record, a new bin and source map per flood bin, parallel
// per-pair maps for beacons and brute force, and no state sweep.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"xlf/internal/netsim"
)

// refScanDetector flags sources touching many distinct (dst, port) pairs in a
// sliding window — the fan-out signature of Mirai's random scanning.
type refScanDetector struct {
	// Window is the observation window.
	Window time.Duration
	// FanOut is the distinct-target threshold.
	FanOut int

	touched map[netsim.Addr][]refTargetSeen
	alerted map[netsim.Addr]time.Duration
}

type refTargetSeen struct {
	t      time.Duration
	target string
}

var _ Detector = (*refScanDetector)(nil)

// newRefScanDetector returns a detector with the given window and fan-out
// threshold.
func newRefScanDetector(window time.Duration, fanOut int) *refScanDetector {
	return &refScanDetector{
		Window:  window,
		FanOut:  fanOut,
		touched: make(map[netsim.Addr][]refTargetSeen),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *refScanDetector) Name() string { return "scan" }

// Process implements Detector.
func (d *refScanDetector) Process(rec netsim.PacketRecord) []Alert {
	key := fmt.Sprintf("%s:%d", rec.Dst, rec.DstPort)
	hist := append(d.touched[rec.Src], refTargetSeen{t: rec.Time, target: key})
	// Evict outside the window.
	cut := 0
	for cut < len(hist) && hist[cut].t < rec.Time-d.Window {
		cut++
	}
	hist = hist[cut:]
	d.touched[rec.Src] = hist

	distinct := make(map[string]struct{}, len(hist))
	for _, h := range hist {
		distinct[h.target] = struct{}{}
	}
	if len(distinct) < d.FanOut {
		return nil
	}
	// Rate-limit: one alert per source per window.
	if last, ok := d.alerted[rec.Src]; ok && rec.Time-last < d.Window {
		return nil
	}
	d.alerted[rec.Src] = rec.Time
	conf := math.Min(1, float64(len(distinct))/float64(2*d.FanOut))
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d distinct targets in %s", len(distinct), d.Window),
		Confidence: math.Max(conf, 0.5),
	}}
}

// refFloodDetector flags destinations receiving traffic far above baseline —
// volumetric DDoS. It tracks per-destination packet rates in fixed bins.
type refFloodDetector struct {
	// Bin is the rate-measurement bin.
	Bin time.Duration
	// PacketsPerBin is the alert threshold.
	PacketsPerBin int
	// MinSources additionally requires this many distinct sources
	// (distributed-ness); 1 disables the requirement.
	MinSources int

	bins    map[netsim.Addr]*refFloodBin
	alerted map[netsim.Addr]time.Duration
}

type refFloodBin struct {
	start   time.Duration
	count   int
	sources map[netsim.Addr]struct{}
}

var _ Detector = (*refFloodDetector)(nil)

// newRefFloodDetector returns a volumetric detector.
func newRefFloodDetector(bin time.Duration, packetsPerBin, minSources int) *refFloodDetector {
	return &refFloodDetector{
		Bin: bin, PacketsPerBin: packetsPerBin, MinSources: minSources,
		bins:    make(map[netsim.Addr]*refFloodBin),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *refFloodDetector) Name() string { return "ddos-flood" }

// Process implements Detector.
func (d *refFloodDetector) Process(rec netsim.PacketRecord) []Alert {
	b := d.bins[rec.Dst]
	if b == nil || rec.Time-b.start >= d.Bin {
		b = &refFloodBin{start: rec.Time, sources: make(map[netsim.Addr]struct{})}
		d.bins[rec.Dst] = b
	}
	b.count++
	b.sources[rec.Src] = struct{}{}
	if b.count < d.PacketsPerBin || len(b.sources) < d.MinSources {
		return nil
	}
	if last, ok := d.alerted[rec.Dst]; ok && rec.Time-last < d.Bin {
		return nil
	}
	d.alerted[rec.Dst] = rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d pkts from %d sources within %s", b.count, len(b.sources), d.Bin),
		Confidence: math.Min(1, float64(b.count)/float64(2*d.PacketsPerBin)+0.5),
	}}
}

// refBeaconDetector flags (src, dst) pairs with highly regular inter-arrival
// times over many packets — C&C keep-alive beaconing.
type refBeaconDetector struct {
	// MinSamples is how many intervals must be seen before judging.
	MinSamples int
	// MaxCV is the maximum coefficient of variation (stddev/mean) for the
	// intervals to count as machine-regular.
	MaxCV float64

	last      map[refBeaconKey]time.Duration
	intervals map[refBeaconKey][]float64
	alerted   map[refBeaconKey]bool
}

type refBeaconKey struct {
	src, dst netsim.Addr
}

var _ Detector = (*refBeaconDetector)(nil)

// newRefBeaconDetector returns a beaconing detector.
func newRefBeaconDetector(minSamples int, maxCV float64) *refBeaconDetector {
	return &refBeaconDetector{
		MinSamples: minSamples, MaxCV: maxCV,
		last:      make(map[refBeaconKey]time.Duration),
		intervals: make(map[refBeaconKey][]float64),
		alerted:   make(map[refBeaconKey]bool),
	}
}

// Name implements Detector.
func (d *refBeaconDetector) Name() string { return "cc-beacon" }

// Process implements Detector.
func (d *refBeaconDetector) Process(rec netsim.PacketRecord) []Alert {
	k := refBeaconKey{rec.Src, rec.Dst}
	if prev, ok := d.last[k]; ok {
		d.intervals[k] = append(d.intervals[k], (rec.Time - prev).Seconds())
		if len(d.intervals[k]) > 4*d.MinSamples {
			d.intervals[k] = d.intervals[k][len(d.intervals[k])-2*d.MinSamples:]
		}
	}
	d.last[k] = rec.Time

	iv := d.intervals[k]
	if len(iv) < d.MinSamples || d.alerted[k] {
		return nil
	}
	mean, sd := refMeanStd(iv)
	if mean <= 0 {
		return nil
	}
	cv := sd / mean
	if cv > d.MaxCV {
		return nil
	}
	d.alerted[k] = true
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("period=%.2fs cv=%.3f over %d intervals", mean, cv, len(iv)),
		Confidence: math.Min(1, 1-cv/d.MaxCV+0.5),
	}}
}

func refMeanStd(xs []float64) (float64, float64) {
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

// refBruteForceDetector flags repeated small packets to authentication ports
// (telnet/ssh/http-auth) from one source — credential stuffing.
type refBruteForceDetector struct {
	Window   time.Duration
	Attempts int
	// Ports lists authentication service ports to watch.
	Ports map[int]bool

	seen    map[refBeaconKey][]time.Duration
	alerted map[refBeaconKey]time.Duration
}

var _ Detector = (*refBruteForceDetector)(nil)

// newRefBruteForceDetector returns a credential-stuffing detector watching
// telnet (23), ssh (22) and http (80) by default.
func newRefBruteForceDetector(window time.Duration, attempts int) *refBruteForceDetector {
	return &refBruteForceDetector{
		Window: window, Attempts: attempts,
		Ports:   map[int]bool{22: true, 23: true, 80: true},
		seen:    make(map[refBeaconKey][]time.Duration),
		alerted: make(map[refBeaconKey]time.Duration),
	}
}

// Name implements Detector.
func (d *refBruteForceDetector) Name() string { return "bruteforce" }

// Process implements Detector.
func (d *refBruteForceDetector) Process(rec netsim.PacketRecord) []Alert {
	if !d.Ports[rec.DstPort] {
		return nil
	}
	k := refBeaconKey{rec.Src, rec.Dst}
	hist := append(d.seen[k], rec.Time)
	cut := 0
	for cut < len(hist) && hist[cut] < rec.Time-d.Window {
		cut++
	}
	hist = hist[cut:]
	d.seen[k] = hist
	if len(hist) < d.Attempts {
		return nil
	}
	if last, ok := d.alerted[k]; ok && rec.Time-last < d.Window {
		return nil
	}
	d.alerted[k] = rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d auth attempts to port %d within %s", len(hist), rec.DstPort, d.Window),
		Confidence: math.Min(1, float64(len(hist))/float64(2*d.Attempts)+0.4),
	}}
}

// refPipeline fans records out to several detectors and collects alerts.
type refPipeline struct {
	detectors []Detector
	alerts    []Alert
}

// newRefPipeline composes detectors.
func newRefPipeline(ds ...Detector) *refPipeline {
	return &refPipeline{detectors: ds}
}

// defaultRefPipeline returns the standard XLF network-layer detector set
// tuned for the testbed's time scales.
func defaultRefPipeline() *refPipeline {
	return newRefPipeline(
		newRefScanDetector(10*time.Second, 12),
		newRefFloodDetector(time.Second, 150, 3),
		newRefBeaconDetector(8, 0.12),
		newRefBruteForceDetector(30*time.Second, 8),
	)
}

// Process feeds one record through all detectors.
func (p *refPipeline) Process(rec netsim.PacketRecord) []Alert {
	var out []Alert
	for _, d := range p.detectors {
		out = append(out, d.Process(rec)...)
	}
	p.alerts = append(p.alerts, out...)
	return out
}

// Alerts returns every alert seen so far (a copy).
func (p *refPipeline) Alerts() []Alert { return append([]Alert(nil), p.alerts...) }

// pipelinePair is a production pipeline and its reference twin with the
// same detector parameters.
type pipelinePair struct {
	name string
	got  func() *Pipeline
	want func() *refPipeline
}

// pipelinePairs are the default tuning and a tight one whose windows are
// short enough that eviction, bin resets, rate limits and idle sweeps all
// happen within a few hundred records.
var pipelinePairs = []pipelinePair{
	{"default", DefaultPipeline, defaultRefPipeline},
	{"tight", func() *Pipeline {
		return NewPipeline(
			NewScanDetector(50*time.Millisecond, 3),
			NewFloodDetector(20*time.Millisecond, 4, 2),
			NewBeaconDetector(3, 0.2),
			NewBruteForceDetector(40*time.Millisecond, 3),
		)
	}, func() *refPipeline {
		return newRefPipeline(
			newRefScanDetector(50*time.Millisecond, 3),
			newRefFloodDetector(20*time.Millisecond, 4, 2),
			newRefBeaconDetector(3, 0.2),
			newRefBruteForceDetector(40*time.Millisecond, 3),
		)
	}},
}

// diffIDS feeds recs, sorted by time, through every pipeline pair one
// record at a time and fails at the first record whose alerts differ in
// any field. It returns the number of alerts the pair raised in total.
func diffIDS(t *testing.T, recs []netsim.PacketRecord) int {
	t.Helper()
	recs = append([]netsim.PacketRecord(nil), recs...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	total := 0
	for _, pp := range pipelinePairs {
		got, want := pp.got(), pp.want()
		for i, r := range recs {
			g, w := got.Process(r), want.Process(r)
			if len(g) != len(w) {
				t.Fatalf("%s: record %d (%+v): %d alerts, reference %d\ngot  %v\nwant %v", pp.name, i, r, len(g), len(w), g, w)
			}
			for j := range g {
				if g[j] != w[j] {
					t.Fatalf("%s: record %d alert %d:\ngot  %#v\nwant %#v", pp.name, i, j, g[j], w[j])
				}
			}
		}
		if g, w := len(got.Alerts()), len(want.Alerts()); g != w {
			t.Fatalf("%s: Alerts() holds %d, reference %d", pp.name, g, w)
		}
		total += len(got.Alerts())
	}
	return total
}

// Small alphabets so keys collide across patterns.
var (
	srcAlphabet  = []netsim.Addr{"lan:cam", "lan:bulb", "lan:lock", "wan:gw", "wan:attacker"}
	dstAlphabet  = []netsim.Addr{"wan:cloud", "wan:cnc", "wan:victim", "lan:cam", "lan:hub", "wan:t1", "wan:t2"}
	portAlphabet = []int{22, 23, 80, 443, 8883}
)

// idsStream builds a mixed stream from a seed: fan-out bursts, multi-source
// floods, exact-period and jittered beacons and auth-port bursts over a
// background of random chatter, separated by idle gaps longer than every
// window. Times are only roughly sorted; diffIDS sorts them.
func idsStream(seed int64) []netsim.PacketRecord {
	rng := rand.New(rand.NewSource(seed))
	pick := func(as []netsim.Addr) netsim.Addr { return as[rng.Intn(len(as))] }
	r := func(at time.Duration, src, dst netsim.Addr, port int) netsim.PacketRecord {
		return netsim.PacketRecord{Time: at, Src: src, Dst: dst, DstPort: port, Size: 60}
	}
	var recs []netsim.PacketRecord
	now := time.Duration(0)
	for phase := 0; phase < 12; phase++ {
		switch rng.Intn(6) {
		case 0: // fan-out burst: one source, many (dst, port) targets
			src, step := pick(srcAlphabet), time.Duration(1+rng.Intn(20))*time.Millisecond
			for i := 0; i < 10+rng.Intn(40); i++ {
				recs = append(recs, r(now, src, pick(dstAlphabet), portAlphabet[rng.Intn(len(portAlphabet))]))
				if rng.Intn(4) == 0 { // a fresh target outside the alphabet
					recs[len(recs)-1].Dst = netsim.Addr(fmt.Sprintf("wan:scan-%d", rng.Intn(30)))
				}
				now += step
			}
		case 1: // multi-source flood on one destination
			dst, step := pick(dstAlphabet), time.Duration(rng.Intn(3000))*time.Microsecond
			for i := 0; i < 20+rng.Intn(300); i++ {
				recs = append(recs, r(now, pick(srcAlphabet), dst, 80))
				now += step
			}
		case 2, 3: // beacon, exact period or jittered
			src, dst := pick(srcAlphabet), pick(dstAlphabet)
			period := time.Duration(1+rng.Intn(40)) * time.Millisecond
			jitter := time.Duration(0)
			if rng.Intn(2) == 0 {
				jitter = period / time.Duration(2+rng.Intn(8))
			}
			at := now
			for i := 0; i < 4+rng.Intn(30); i++ {
				j := time.Duration(0)
				if jitter > 0 {
					j = time.Duration(rng.Int63n(int64(jitter)))
				}
				recs = append(recs, r(at+j, src, dst, 6667))
				at += period
			}
			now = at
		case 4: // auth-port burst on 22/23/80
			src, dst := pick(srcAlphabet), pick(dstAlphabet)
			for i := 0; i < 3+rng.Intn(20); i++ {
				recs = append(recs, r(now, src, dst, portAlphabet[rng.Intn(3)]))
				now += time.Duration(rng.Intn(15)) * time.Millisecond
			}
		case 5: // random background
			for i := 0; i < 30; i++ {
				recs = append(recs, r(now, pick(srcAlphabet), pick(dstAlphabet), portAlphabet[rng.Intn(len(portAlphabet))]))
				now += time.Duration(rng.Intn(30)) * time.Millisecond
			}
		}
		// An idle gap: sometimes inside the tight windows, sometimes past
		// every window (the default scan window is 10s, brute force 30s).
		now += []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, 11 * time.Second, 45 * time.Second}[rng.Intn(5)]
	}
	return recs
}

// TestIDSMatchesReference holds the O(1) detectors to the verbatim
// pre-rewrite detectors in reference_test.go, alert for alert, on seeded
// streams and on directed edge cases.
func TestIDSMatchesReference(t *testing.T) {
	r := func(ms int, src, dst netsim.Addr, port int) netsim.PacketRecord {
		return netsim.PacketRecord{Time: time.Duration(ms) * time.Millisecond, Src: src, Dst: dst, DstPort: port}
	}
	directed := map[string][]netsim.PacketRecord{
		// The same (dst, port) repeated inside the window counts once,
		// and its count survives the eviction of older copies.
		"repeated-target": {
			r(0, "lan:a", "wan:x", 23), r(10, "lan:a", "wan:y", 23), r(20, "lan:a", "wan:x", 23),
			r(55, "lan:a", "wan:z", 23), r(61, "lan:a", "wan:w", 23), r(62, "lan:a", "wan:x", 80),
			r(63, "lan:a", "wan:x", 22),
		},
		// Records exactly one window apart sit on the eviction boundary.
		"window-boundary": {
			r(0, "lan:a", "wan:1", 23), r(0, "lan:a", "wan:2", 23), r(50, "lan:a", "wan:3", 23),
			r(50, "lan:a", "wan:4", 23), r(100, "lan:a", "wan:5", 23), r(100, "lan:a", "wan:6", 23),
			r(150, "lan:a", "wan:7", 23), r(151, "lan:a", "wan:8", 23),
		},
		// Bins exactly one Bin long, with a source set that must empty.
		"bin-boundary": {
			r(0, "lan:a", "wan:v", 80), r(5, "lan:b", "wan:v", 80), r(10, "lan:c", "wan:v", 80), r(19, "lan:a", "wan:v", 80),
			r(20, "lan:a", "wan:v", 80), r(21, "lan:a", "wan:v", 80), r(22, "lan:a", "wan:v", 80), r(23, "lan:b", "wan:v", 80),
			r(40, "lan:a", "wan:v", 80), r(40, "lan:b", "wan:v", 80), r(40, "lan:c", "wan:v", 80), r(40, "lan:a", "wan:v", 80),
		},
		// Simultaneous records: a zero interval makes the beacon mean 0.
		"same-instant": {
			r(5, "lan:a", "wan:c", 443), r(5, "lan:a", "wan:c", 443), r(5, "lan:a", "wan:c", 443),
			r(5, "lan:a", "wan:c", 443), r(5, "lan:a", "wan:c", 443),
		},
	}
	for name, recs := range directed {
		t.Run(name, func(t *testing.T) { diffIDS(t, recs) })
	}
	alerts := 0
	for seed := int64(1); seed <= 200; seed++ {
		alerts += diffIDS(t, idsStream(seed))
	}
	if alerts == 0 {
		t.Fatal("no stream raised an alert; the comparison proves nothing")
	}
}

// TestIDSStateIsBounded: 1,000 sources scan, then go quiet for longer than
// every window. The swept detectors hold no key for them afterwards, and
// the alerts match the reference throughout, including after the scanners
// come back.
func TestIDSStateIsBounded(t *testing.T) {
	var recs []netsim.PacketRecord
	at := time.Duration(0)
	for s := 0; s < 1000; s++ {
		src := netsim.Addr(fmt.Sprintf("lan:bot-%d", s))
		for i := 0; i < 15; i++ {
			recs = append(recs, netsim.PacketRecord{Time: at, Src: src, Dst: netsim.Addr(fmt.Sprintf("wan:t-%d", (s+i)%40)), DstPort: 23})
			at += time.Millisecond
		}
	}
	quiet := at + 31*time.Second // past the 10s scan, 1s flood and 30s brute-force windows
	recs = append(recs, netsim.PacketRecord{Time: quiet, Src: "lan:hub", Dst: "wan:cloud", DstPort: 23})

	p := DefaultPipeline()
	scan, flood, brute := p.detectors[0].(*ScanDetector), p.detectors[1].(*FloodDetector), p.detectors[3].(*BruteForceDetector)
	for _, r := range recs {
		p.Process(r)
	}
	if n := len(scan.sources); n != 1 {
		t.Errorf("scan holds %d sources after the quiet period, want 1 (the hub)", n)
	}
	if n := len(flood.bins); n != 1 {
		t.Errorf("flood holds %d destinations after the quiet period, want 1", n)
	}
	if n := len(brute.pairs); n != 1 {
		t.Errorf("brute force holds %d pairs after the quiet period, want 1", n)
	}
	scan.sweep(quiet + scan.Window + 1)
	if n := len(scan.sources); n != 0 {
		t.Errorf("scan holds %d sources once the hub is idle too, want 0", n)
	}

	// The scanners return: swept state must behave as never seen.
	again := quiet + time.Second
	for s := 0; s < 1000; s += 7 {
		for i := 0; i < 15; i++ {
			recs = append(recs, netsim.PacketRecord{Time: again, Src: netsim.Addr(fmt.Sprintf("lan:bot-%d", s)), Dst: netsim.Addr(fmt.Sprintf("wan:t-%d", i)), DstPort: 23})
			again += time.Millisecond
		}
	}
	if diffIDS(t, recs) == 0 {
		t.Fatal("the scan raised no alert")
	}
}

// FuzzIDSProcess decodes records from the fuzz input — four bytes each:
// time, source, destination and port from the small alphabets — sorts
// them by time and holds both pipeline pairs to the reference.
func FuzzIDSProcess(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 1, 0, 2, 1, 2, 0, 3, 1, 3, 0, 4, 1, 4, 0, 5, 1})
	f.Add([]byte{0, 1, 2, 0, 0, 2, 2, 0, 1, 3, 2, 0, 1, 4, 2, 0, 2, 1, 2, 0, 2, 2, 2, 0})
	f.Add([]byte{0, 0, 1, 3, 10, 0, 1, 3, 20, 0, 1, 3, 30, 0, 1, 3, 40, 0, 1, 3, 250, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*300 {
			data = data[:4*300]
		}
		var recs []netsim.PacketRecord
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			// Milliseconds up to 200, then whole seconds, so windows of
			// every detector both hold and expire.
			at := time.Duration(b[0]) * time.Millisecond
			if b[0] > 200 {
				at = time.Duration(b[0]-200) * time.Second
			}
			recs = append(recs, netsim.PacketRecord{
				Time: at,
				Src:  srcAlphabet[int(b[1])%len(srcAlphabet)],
				Dst:  dstAlphabet[int(b[2])%len(dstAlphabet)],
				// Ports from the alphabet, or a fresh one per byte value.
				DstPort: func() int {
					if int(b[3]) < len(portAlphabet) {
						return portAlphabet[b[3]]
					}
					return 1000 + int(b[3])
				}(),
			})
		}
		diffIDS(t, recs)
	})
}
