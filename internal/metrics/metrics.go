// Package metrics provides the evaluation plumbing for the experiment
// suite: confusion matrices (precision/recall/F1), latency summaries with
// quantiles, and fixed-width table rendering for the table/figure
// reproductions printed by cmd/xlf-bench and the benchmarks.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, FN, TN int
}

// Record scores one (predicted, actual) pair.
func (c *Confusion) Record(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Precision is TP/(TP+FP); 1 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 1 when there were no positives to find.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the headline numbers.
func (c Confusion) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d tn=%d)",
		c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN, c.TN)
}

// Latencies accumulates duration samples and reports quantiles.
type Latencies struct {
	samples []time.Duration
}

// Observe adds a sample.
func (l *Latencies) Observe(d time.Duration) { l.samples = append(l.samples, d) }

// Count returns the sample count.
func (l *Latencies) Count() int { return len(l.samples) }

// Mean returns the average (0 when empty).
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Quantile returns the q-quantile by linear interpolation between closest
// ranks (the R-7 / NumPy "linear" definition): position q*(n-1) in the
// sorted samples, interpolating between neighbours when it falls between
// two ranks. Out-of-range q clamps to the extremes (NaN behaves like 0),
// the empty summary reports 0, and a single sample is every quantile of
// itself.
func (l *Latencies) Quantile(q float64) time.Duration {
	n := len(l.samples)
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if !(q > 0) { // catches q <= 0 and NaN
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 || lo+1 >= n {
		return sorted[lo]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// String summarises mean/p50/p95/p99.
func (l *Latencies) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s",
		l.Count(), l.Mean(), l.Quantile(0.5), l.Quantile(0.95), l.Quantile(0.99))
}

// Table renders fixed-width rows for the table reproductions.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}
