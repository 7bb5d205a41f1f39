package obs

import (
	"math/rand"
	"testing"
	"time"

	"xlf/internal/metrics"
)

// TestQuantileEmptyAndEdges pins the edge semantics shared with
// internal/metrics.Quantile: empty returns 0, q <= 0 (and NaN via the
// !(q > 0) contract) clamps to the minimum, q >= 1 to the maximum.
func TestQuantileEmptyAndEdges(t *testing.T) {
	var nilH *Histogram
	if got := QuantileBuckets(nilH.Buckets(), 0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %d, want 0", got)
	}
	h := &Histogram{}
	if got := QuantileBuckets(h.Buckets(), 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	h.Observe(0)
	h.Observe(100)
	if got := QuantileBuckets(h.Buckets(), -1); got != 0 {
		t.Fatalf("q<=0 = %d, want min bucket estimate 0", got)
	}
	max := QuantileBuckets(h.Buckets(), 1)
	if max < 64 || max > 127 {
		t.Fatalf("q>=1 = %d, want inside the bucket holding 100 ([64,127])", max)
	}
}

// TestQuantileExactBuckets checks exact results where buckets are
// singletons (0 and 1 each live alone in their bucket).
func TestQuantileExactBuckets(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	buckets := h.Buckets()
	if got := QuantileBuckets(buckets, 0.25); got != 0 {
		t.Fatalf("p25 = %d, want 0", got)
	}
	if got := QuantileBuckets(buckets, 0.95); got != 1 {
		t.Fatalf("p95 = %d, want 1", got)
	}
}

// TestQuantileErrorBoundVsMetrics is the satellite cross-check: against
// the exact sample quantile from internal/metrics.Latencies (the R-7
// definition the estimator mirrors), the bucketed estimate must stay
// within the documented factor-of-2 relative error for every q and for
// several distributions.
func TestQuantileErrorBoundVsMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	distributions := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Int63n(1_000_000)) },
		"exp-ish":   func() uint64 { return uint64(1) << uint(rng.Intn(20)) },
		"heavytail": func() uint64 { return uint64(rng.Int63n(1000) * rng.Int63n(1000)) },
		"constant":  func() uint64 { return 4096 },
	}
	qs := []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{}
			var l metrics.Latencies
			for i := 0; i < 5000; i++ {
				v := gen()
				h.Observe(v)
				l.Observe(time.Duration(v))
			}
			buckets := h.Buckets()
			for _, q := range qs {
				got := float64(QuantileBuckets(buckets, q))
				want := float64(l.Quantile(q))
				lo, hi := want/2, want*2
				if want == 0 {
					lo, hi = 0, 0
				}
				if got < lo || got > hi {
					t.Errorf("q=%g: bucketed %.0f outside [%g, %g] around exact %.0f", q, got, lo, hi, want)
				}
			}
		})
	}
}

// TestQuantileBucketsMatchesHistogram pins that the estimator over a
// sparse Buckets snapshot agrees with the same estimate over the live
// histogram's dense counts, so the snapshot loses no bucket.
func TestQuantileBucketsMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 2000; i++ {
		h.Observe(uint64(rng.Int63n(1 << 30)))
	}
	var counts [histBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	buckets := h.Buckets()
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if live, snap := quantileFromCounts(&counts, total, q), QuantileBuckets(buckets, q); live != snap {
			t.Errorf("q=%g: live %d != snapshot %d", q, live, snap)
		}
	}
}

// TestBucketBounds pins the bucket geometry the estimator interpolates
// over, including the saturating top bucket.
func TestBucketBounds(t *testing.T) {
	cases := []struct {
		i      int
		lo, hi uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 4, 7},
		{10, 512, 1023},
		{64, 1 << 63, ^uint64(0)},
	}
	for _, c := range cases {
		lo, hi := bucketBounds(c.i)
		if lo != c.lo || hi != c.hi {
			t.Errorf("bucketBounds(%d) = (%d, %d), want (%d, %d)", c.i, lo, hi, c.lo, c.hi)
		}
	}
}
