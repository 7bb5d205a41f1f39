package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter discards
// updates, so callers can hold one unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by delta. Nil-safe.
//
//xlf:hotpath
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one. Nil-safe.
//
//xlf:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable signed metric (queue depth, active sessions).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Nil-safe.
//
//xlf:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta. Nil-safe.
//
//xlf:hotpath
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge reading. Nil-safe.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per power of two (bucket i holds values v
// with bits.Len64(v) == i, i.e. 0, 1, 2–3, 4–7, ...), plus bucket 0 for
// zero. 65 buckets cover the full uint64 range.
const histBuckets = 65

// Histogram is a power-of-two bucketed distribution: cheap (one atomic
// add per observation), bounded, and exact enough to rank hot paths.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one sample. Nil-safe.
//
//xlf:hotpath
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values. Nil-safe.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Buckets returns the nonzero buckets as (upper-bound, count) pairs in
// ascending order. The upper bound for bucket i is 2^i - 1. Nil-safe.
func (h *Histogram) Buckets() []HistBucket {
	if h == nil {
		return nil
	}
	var out []HistBucket
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			hi := uint64(0)
			if i > 0 {
				hi = 1<<uint(i) - 1
			}
			out = append(out, HistBucket{Le: hi, Count: n})
		}
	}
	return out
}

// HistBucket is one row of a Histogram snapshot: Count observations with
// value <= Le (and above the previous bucket's bound).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Registry is a get-or-create namespace of runtime metrics, separate from
// the offline eval tables in internal/metrics. A nil *Registry hands out
// nil instruments, which discard updates — the disabled state mirrors the
// nil Tracer. All methods are safe for concurrent use.
//
// Its mutex is a leaf lock: while holding it a method only reads the
// instruments' atomics, so the DetectionTracker may call in with its own
// lock held and no lock-order cycle can pass through it.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil (discarding) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time, name-sorted copy of a registry's metrics.
type Snapshot struct {
	Counters   []CounterSample `json:"counters,omitempty"`
	Gauges     []GaugeSample   `json:"gauges,omitempty"`
	Histograms []HistSample    `json:"histograms,omitempty"`
}

// CounterSample is one counter reading in a Snapshot.
type CounterSample struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSample is one gauge reading in a Snapshot.
type GaugeSample struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSample is one histogram reading in a Snapshot.
type HistSample struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot copies every metric under the registry lock, sorted by name so
// the output is deterministic. Nil-safe: a nil registry snapshots empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make([]CounterSample, 0, len(r.counters)),
		Gauges:     make([]GaugeSample, 0, len(r.gauges)),
		Histograms: make([]HistSample, 0, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistSample{
			Name: name, Count: h.Count(), Sum: h.Sum(), Buckets: h.Buckets(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// String renders the snapshot one metric per line, for logs and CLIs.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "hist %s count=%d sum=%d\n", h.Name, h.Count, h.Sum)
	}
	return b.String()
}
