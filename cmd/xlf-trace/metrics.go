package main

// The `metrics` subcommand renders an xlf-metrics/v1 artifact (written by
// xlf-bench -telemetry or obs.WriteMetrics) as per-source rollup tables:
// counter totals with window rates, histogram quantiles, and the
// flight-recorder dump log. All times are simulation time.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xlf/internal/obs"
)

func runMetrics(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("xlf-trace metrics", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		src     = fs.String("src", "", "only windows/dumps from this source label")
		windows = fs.Bool("windows", false, "render every window, not just the per-source rollup")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "xlf-trace metrics: exactly one metrics file expected (try -h)")
		return 2
	}
	var meta obs.MetricsMeta
	var recs []obs.WindowRecord
	var dumps []obs.Dump
	if code := readFile(fs.Arg(0), func(r io.Reader) (err error) {
		meta, recs, dumps, err = obs.ReadMetrics(r)
		return err
	}); code != 0 {
		return code
	}

	totalW, totalD := len(recs), len(dumps)
	if *src != "" {
		recs = filter(recs, func(w obs.WindowRecord) bool { return w.Src == *src })
		dumps = filter(dumps, func(d obs.Dump) bool { return d.Src == *src })
	}
	renderMetrics(out, meta, recs, dumps, totalW, totalD, *windows)
	return 0
}

func renderMetrics(out io.Writer, meta obs.MetricsMeta, recs []obs.WindowRecord, dumps []obs.Dump, totalW, totalD int, everyWindow bool) {
	fmt.Fprintf(out, "metrics %s  seed=%d clock=%s", meta.Schema, meta.Seed, meta.Clock)
	if meta.Source != "" {
		fmt.Fprintf(out, " source=%s", meta.Source)
	}
	fmt.Fprintf(out, "  interval=%s windows=%d dumps=%d", meta.Interval, totalW, totalD)
	if len(recs) != totalW || len(dumps) != totalD {
		fmt.Fprintf(out, " (selected %d/%d)", len(recs), len(dumps))
	}
	fmt.Fprintln(out)
	if meta.Evicted > 0 {
		fmt.Fprintf(out, "WARNING: %d windows were evicted from rollup rings; the record is incomplete\n", meta.Evicted)
	}
	if meta.DroppedDumps > 0 {
		fmt.Fprintf(out, "WARNING: %d flight-recorder dumps were dropped by the dump budget; the record is incomplete\n", meta.DroppedDumps)
	}
	if len(recs) == 0 && len(dumps) == 0 {
		fmt.Fprintln(out, "no windows")
		return
	}

	// Windows arrive grouped by source (exp.Env collects its observation
	// tree depth-first), so one pass cuts the per-source sections.
	for start := 0; start < len(recs); {
		end := start + 1
		for end < len(recs) && recs[end].Src == recs[start].Src {
			end++
		}
		renderSource(out, recs[start:end], everyWindow)
		start = end
	}
	if len(dumps) > 0 {
		fmt.Fprintln(out)
		renderDumps(out, dumps)
	}
}

// renderSource prints one source's rollup: the sim-time span, each
// counter's total with min/max window rates, and each histogram's
// cumulative quantiles from the final window.
func renderSource(out io.Writer, recs []obs.WindowRecord, everyWindow bool) {
	first, last := recs[0], recs[len(recs)-1]
	name := first.Src
	if name == "" {
		name = "(run)"
	}
	fmt.Fprintf(out, "\n%s  %d windows  %s .. %s\n", name, len(recs), first.Start, last.End)

	type rateAgg struct {
		total    uint64
		min, max float64
		windows  int
	}
	counters := map[string]*rateAgg{}
	order := []string{}
	for _, r := range recs {
		for _, c := range r.Counters {
			a := counters[c.Name]
			if a == nil {
				a = &rateAgg{min: c.PerSec, max: c.PerSec}
				counters[c.Name] = a
				order = append(order, c.Name)
			}
			a.total = c.Total
			if c.PerSec < a.min {
				a.min = c.PerSec
			}
			if c.PerSec > a.max {
				a.max = c.PerSec
			}
			a.windows++
		}
	}
	if len(order) > 0 {
		fmt.Fprintf(out, "  %-28s %12s %14s %14s\n", "COUNTER", "TOTAL", "MIN-RATE/S", "MAX-RATE/S")
		for _, n := range order {
			a := counters[n]
			fmt.Fprintf(out, "  %-28s %12d %14.1f %14.1f\n", n, a.total, a.min, a.max)
		}
	}

	if len(last.Hists) > 0 {
		fmt.Fprintf(out, "  %-28s %12s %14s %14s %14s\n", "HISTOGRAM", "COUNT", "P50", "P95", "P99")
		for _, h := range last.Hists {
			fmt.Fprintf(out, "  %-28s %12d %14s %14s %14s\n",
				h.Name, h.Count, histVal(h.Name, h.CumP50), histVal(h.Name, h.CumP95), histVal(h.Name, h.CumP99))
		}
	}

	if everyWindow {
		fmt.Fprintf(out, "  %-6s %-14s %s\n", "W", "START", "ACTIVITY (counter deltas)")
		for _, r := range recs {
			parts := []string{}
			for _, c := range r.Counters {
				if c.Delta > 0 {
					parts = append(parts, fmt.Sprintf("%s+%d", c.Name, c.Delta))
				}
			}
			fmt.Fprintf(out, "  %-6d %-14s %s\n", r.Index, r.Start.String(), strings.Join(parts, " "))
		}
	}
}

// histVal renders a histogram quantile: names with the _ns suffix
// convention hold nanosecond observations and read as durations.
func histVal(name string, v uint64) string {
	if strings.HasSuffix(name, "_ns") || strings.Contains(name, "latency_ns") {
		return time.Duration(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// renderDumps prints the flight-recorder log: one row per dump with its
// trigger reasons, debounce count and captured span window.
func renderDumps(out io.Writer, dumps []obs.Dump) {
	fmt.Fprintf(out, "flight recorder  %d dumps\n", len(dumps))
	fmt.Fprintf(out, "  %-14s %-12s %-24s %10s %6s\n", "TIME", "SRC", "REASONS", "SUPPRESSED", "SPANS")
	for _, d := range dumps {
		src := d.Src
		if src == "" {
			src = "-"
		}
		fmt.Fprintf(out, "  %-14s %-12s %-24s %10d %6d\n",
			d.Time.String(), src, strings.Join(d.Reasons, ","), d.Suppressed, len(d.Spans))
	}
}
