package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestConfusionScores(t *testing.T) {
	var c Confusion
	// 8 TP, 2 FP, 2 FN, 88 TN.
	for i := 0; i < 8; i++ {
		c.Record(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Record(true, false)
		c.Record(false, true)
	}
	for i := 0; i < 88; i++ {
		c.Record(false, false)
	}
	if p := c.Precision(); p != 0.8 {
		t.Errorf("precision = %v, want 0.8", p)
	}
	if r := c.Recall(); r != 0.8 {
		t.Errorf("recall = %v, want 0.8", r)
	}
	if f := c.F1(); f < 0.799 || f > 0.801 {
		t.Errorf("f1 = %v, want 0.8", f)
	}
	if a := c.Accuracy(); a != 0.96 {
		t.Errorf("accuracy = %v, want 0.96", a)
	}
	s := c.String()
	if !strings.Contains(s, "F1=0.800") {
		t.Errorf("string = %q", s)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 1 || c.Recall() != 1 {
		t.Error("vacuous precision/recall should be 1")
	}
	if c.F1() != 1 {
		t.Errorf("vacuous F1 = %v", c.F1())
	}
	if c.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
	var a, b Confusion
	a.Record(true, true)
	b.Record(false, true)
	a.Add(b)
	if a.TP != 1 || a.FN != 1 {
		t.Errorf("Add = %+v", a)
	}
}

func TestLatencies(t *testing.T) {
	var l Latencies
	if l.Mean() != 0 || l.Quantile(0.5) != 0 {
		t.Error("empty latencies not zero")
	}
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 100 {
		t.Errorf("count = %d", l.Count())
	}
	if m := l.Mean(); m != 50500*time.Microsecond {
		t.Errorf("mean = %v", m)
	}
	// Interpolated ranks over 1..100ms: position q*(n-1).
	if p50 := l.Quantile(0.5); p50 != 50500*time.Microsecond {
		t.Errorf("p50 = %v, want 50.5ms", p50)
	}
	if p99 := l.Quantile(0.99); p99 != 99010*time.Microsecond {
		t.Errorf("p99 = %v, want 99.01ms", p99)
	}
	if p0 := l.Quantile(0); p0 != time.Millisecond {
		t.Errorf("p0 = %v", p0)
	}
	if p100 := l.Quantile(1); p100 != 100*time.Millisecond {
		t.Errorf("p100 = %v", p100)
	}
}

// TestQuantileInterpolation pins the R-7 linear-interpolation definition
// and the empty/single-sample edge cases the experiment reports rely on.
func TestQuantileInterpolation(t *testing.T) {
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"empty p99", nil, 0.99, 0},
		{"single median", []time.Duration{7 * time.Millisecond}, 0.5, 7 * time.Millisecond},
		{"single p0", []time.Duration{7 * time.Millisecond}, 0, 7 * time.Millisecond},
		{"single p100", []time.Duration{7 * time.Millisecond}, 1, 7 * time.Millisecond},
		{"pair median", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, 0.5, 15 * time.Millisecond},
		{"pair p25", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, 0.25, 12500 * time.Microsecond},
		{"triple exact rank", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}, 0.5, 20 * time.Millisecond},
		{"triple p75 interpolates", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}, 0.75, 30 * time.Millisecond},
		{"unsorted input", []time.Duration{40 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}, 0.75, 30 * time.Millisecond},
		{"clamp below", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, -0.5, 10 * time.Millisecond},
		{"clamp above", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, 1.5, 20 * time.Millisecond},
		{"nan is min", []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}, math.NaN(), 10 * time.Millisecond},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var l Latencies
			for _, s := range tc.samples {
				l.Observe(s)
			}
			if got := l.Quantile(tc.q); got != tc.want {
				t.Errorf("Quantile(%v) over %v = %v, want %v", tc.q, tc.samples, got, tc.want)
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table X: demo", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.5")
	tb.AddRow("gamma") // missing cell
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, sep, 3 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Errorf("header line = %q", lines[1])
	}
	if tb.Rows() != 3 {
		t.Errorf("rows = %d", tb.Rows())
	}
	// Columns align: all data lines have "Value" column at same offset.
	col := strings.Index(lines[1], "Value")
	if !strings.HasPrefix(lines[3][col:], "1") {
		t.Errorf("misaligned row: %q", lines[3])
	}
}
