package obs

import "math/bits"

// Quantile estimation from power-of-two histogram buckets.
//
// The estimator mirrors internal/metrics.Latencies.Quantile (the R-7 /
// NumPy-linear definition): for a sorted sample of n observations the
// q-quantile sits at rank pos = q*(n-1). With bucketed counts the exact
// rank is known but the value within its bucket is not, so the estimate
// interpolates linearly across the bucket's value range. Because bucket
// i spans [2^(i-1), 2^i - 1] (bucket 0 holds exactly zero), the estimate
// is always within a factor of 2 of the true sample value — i.e. the
// relative error is bounded by 2x for values >= 1 and is exact for zero.
// That bound is what makes p50/p95/p99 from the Registry's histograms
// honest enough to gate SLOs on.

// QuantileBuckets estimates the q-quantile of the observed distribution
// from a sparse HistBucket snapshot (as produced by Histogram.Buckets or
// a Snapshot). q <= 0 (or NaN) returns the minimum bucket estimate,
// q >= 1 the maximum; no buckets return 0. The xlf-trace metrics
// renderer works from serialized snapshots.
func QuantileBuckets(buckets []HistBucket, q float64) uint64 {
	var counts [histBuckets]uint64
	total := uint64(0)
	for _, b := range buckets {
		// Recover the bucket index from its upper bound: bucket 0 has
		// Le 0, bucket i>0 has Le = 2^i - 1, so i = bits.Len64(Le).
		i := bits.Len64(b.Le)
		if i >= histBuckets {
			i = histBuckets - 1
		}
		counts[i] += b.Count
		total += b.Count
	}
	return quantileFromCounts(&counts, total, q)
}

// quantileFromCounts locates the bucket holding rank q*(total-1) and
// interpolates within it. counts is the dense per-bucket array; total is
// its sum (passed in because callers already have it).
func quantileFromCounts(counts *[histBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	// R-7 rank: q <= 0 or NaN clamps to the first sample, q >= 1 to the
	// last. pos is a 0-based fractional rank; bucketed counts cannot
	// interpolate between adjacent samples, so the integer rank selects
	// the bucket and the fraction rides along inside it.
	pos := 0.0
	if q > 0 {
		if q >= 1 {
			pos = float64(total - 1)
		} else {
			pos = q * float64(total-1)
		}
	}
	rank := uint64(pos)
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i := 0; i < histBuckets; i++ {
		c := counts[i]
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo, hi := bucketBounds(i)
			if hi == lo {
				return lo
			}
			// Spread the bucket's c samples evenly over [lo, hi] and
			// take the midpoint of the rank's sub-interval.
			p := pos - float64(cum)
			if p < 0 {
				p = 0
			}
			if p > float64(c-1) {
				p = float64(c - 1)
			}
			est := float64(lo) + (float64(hi)-float64(lo))*((p+0.5)/float64(c))
			v := uint64(est)
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
		cum += c
	}
	// Unreachable when total matches counts; fall back to the max bound.
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// bucketBounds returns the inclusive value range of bucket i: bucket 0
// holds exactly zero, bucket i>0 holds [2^(i-1), 2^i - 1] (the values v
// with bits.Len64(v) == i). Bucket 64's upper bound saturates at the
// maximum uint64.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << uint(i-1)
	if i >= 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<uint(i) - 1
}
