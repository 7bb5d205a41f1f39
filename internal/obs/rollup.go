package obs

import (
	"math/bits"
	"time"
)

// DefaultRollupWindows bounds the rollup ring when a Rollup is built with
// windows <= 0: at a 1s interval it holds ~17 simulated minutes, enough
// for every committed experiment horizon while staying allocation-bounded.
const DefaultRollupWindows = 1024

// RateSample is one counter's per-window reading: the cumulative total,
// the delta accumulated inside the window, and the delta normalised to a
// per-second rate over the window length.
type RateSample struct {
	Name   string  `json:"name"`
	Total  uint64  `json:"total"`
	Delta  uint64  `json:"delta"`
	PerSec float64 `json:"per_sec"`
}

// WindowHist is one histogram's per-window reading. P50/P95/P99 are the
// bucketed quantile estimates over the observations made *inside* the
// window (see QuantileBuckets for the error bound); CumP50/CumP95/
// CumP99 estimate the cumulative distribution so totals rows do not have
// to re-derive them.
type WindowHist struct {
	Name   string `json:"name"`
	Delta  uint64 `json:"delta"`
	Count  uint64 `json:"count"`
	Sum    uint64 `json:"sum"`
	P50    uint64 `json:"p50"`
	P95    uint64 `json:"p95"`
	P99    uint64 `json:"p99"`
	CumP50 uint64 `json:"cum_p50"`
	CumP95 uint64 `json:"cum_p95"`
	CumP99 uint64 `json:"cum_p99"`
}

// WindowRecord is one completed rollup window: a delta view of the
// Registry between two sim-clock ticks. Field order is the xlf-metrics/v1
// wire order — do not reorder without bumping MetricsSchema.
type WindowRecord struct {
	// Src names the producing harness when windows from several runs
	// share one file (e.g. "E10/1000"); empty for single-source files.
	Src string `json:"src,omitempty"`
	// Index numbers the window within its source, starting at 0.
	Index int `json:"w"`
	// Start and End are the window's sim-clock bounds.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Counters and Hists are name-sorted (Snapshot order).
	Counters []RateSample `json:"counters,omitempty"`
	Hists    []WindowHist `json:"hists,omitempty"`
}

// histState is the previous cumulative reading of one histogram, kept so
// the next window can difference against it without re-walking spans.
type histState struct {
	count  uint64
	sum    uint64
	counts [histBuckets]uint64
}

// Rollup snapshots a Registry at a fixed sim-time interval and turns the
// cumulative readings into per-window deltas and rates, retaining a
// bounded ring of completed windows. Tick is driven from the simulation
// kernel (a zero-jitter Ticker or a re-armed ScheduleArg), never the wall
// clock, so rollup output is deterministic and byte-identical at any
// scheduler parallelism. A nil *Rollup is the disabled state: Tick and
// the accessors no-op, mirroring the nil Tracer/Registry contract.
type Rollup struct {
	reg      *Registry
	interval time.Duration

	ring  []WindowRecord
	head  int // next write slot
	n     int // occupied slots
	total int // windows ever completed (including evicted)
	start time.Duration

	prevC map[string]uint64
	prevH map[string]*histState
}

// NewRollup builds a rollup over reg with the given window interval and
// ring size (DefaultRollupWindows when windows <= 0). interval must be
// positive; reg may be nil (every window is then empty).
func NewRollup(reg *Registry, interval time.Duration, windows int) *Rollup {
	if interval <= 0 {
		interval = time.Second
	}
	if windows <= 0 {
		windows = DefaultRollupWindows
	}
	return &Rollup{
		reg:      reg,
		interval: interval,
		ring:     make([]WindowRecord, windows),
		prevC:    make(map[string]uint64),
		prevH:    make(map[string]*histState),
	}
}

// Interval returns the configured window length. Nil-safe.
func (r *Rollup) Interval() time.Duration {
	if r == nil {
		return 0
	}
	return r.interval
}

// Tick closes the window ending at now: it snapshots the registry,
// differences it against the previous tick, and pushes the completed
// WindowRecord into the ring. Tick runs on the sim-clock cold path (once
// per window, not per event), so the per-window Snapshot allocation is
// acceptable; per-event cost stays on the instruments' atomic adds. Ring
// slots reuse their slices across laps, so a full ring stops allocating
// once every metric name has been seen. Nil-safe.
func (r *Rollup) Tick(now time.Duration) {
	if r == nil {
		return
	}
	snap := r.reg.Snapshot()
	w := &r.ring[r.head]
	w.Src = ""
	w.Index = r.total
	w.Start = r.start
	w.End = now
	secs := (now - r.start).Seconds()

	w.Counters = w.Counters[:0]
	for _, c := range snap.Counters {
		delta := c.Value - r.prevC[c.Name]
		r.prevC[c.Name] = c.Value
		rate := 0.0
		if secs > 0 {
			rate = float64(delta) / secs
		}
		w.Counters = append(w.Counters, RateSample{
			Name: c.Name, Total: c.Value, Delta: delta, PerSec: rate,
		})
	}

	w.Hists = w.Hists[:0]
	for _, h := range snap.Histograms {
		prev, ok := r.prevH[h.Name]
		if !ok {
			prev = &histState{}
			r.prevH[h.Name] = prev
		}
		var cum, win [histBuckets]uint64
		for _, b := range h.Buckets {
			i := histIndex(b.Le)
			cum[i] = b.Count
		}
		for i := range win {
			win[i] = cum[i] - prev.counts[i]
		}
		delta := h.Count - prev.count
		wh := WindowHist{
			Name:  h.Name,
			Delta: delta,
			Count: h.Count,
			Sum:   h.Sum,
		}
		if delta > 0 {
			wh.P50 = quantileFromCounts(&win, delta, 0.50)
			wh.P95 = quantileFromCounts(&win, delta, 0.95)
			wh.P99 = quantileFromCounts(&win, delta, 0.99)
		}
		if h.Count > 0 {
			wh.CumP50 = quantileFromCounts(&cum, h.Count, 0.50)
			wh.CumP95 = quantileFromCounts(&cum, h.Count, 0.95)
			wh.CumP99 = quantileFromCounts(&cum, h.Count, 0.99)
		}
		prev.count = h.Count
		prev.sum = h.Sum
		prev.counts = cum
		w.Hists = append(w.Hists, wh)
	}

	r.total++
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	if r.n < len(r.ring) {
		r.n++
	}
	r.start = now
}

// histIndex recovers the dense bucket index from a HistBucket upper
// bound (the inverse of the encoding in Histogram.Buckets): bucket 0 has
// Le 0, bucket i>0 has Le = 2^i - 1, so bits.Len64(Le) is the index.
func histIndex(le uint64) int {
	i := bits.Len64(le)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Windows returns a deep copy of the retained windows, oldest first.
// Nil-safe.
func (r *Rollup) Windows() []WindowRecord {
	if r == nil {
		return nil
	}
	out := make([]WindowRecord, 0, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		w := r.ring[(start+i)%len(r.ring)]
		w.Counters = append([]RateSample(nil), w.Counters...)
		w.Hists = append([]WindowHist(nil), w.Hists...)
		out = append(out, w)
	}
	return out
}

// Evicted returns how many completed windows the ring displaced.
// Nil-safe.
func (r *Rollup) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return uint64(r.total - r.n)
}
