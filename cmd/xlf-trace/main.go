// Command xlf-trace renders an xlf-trace/v1 artifact (written by
// xlf-bench -trace or obs.WriteTrace) as a human-readable cross-layer
// timeline: which layer was active when, plus per-layer/op rollups with
// span counts and latency statistics. All times are simulation time.
//
// Usage:
//
//	xlf-trace trace.jsonl                 # timeline + rollups
//	xlf-trace -device cam-1 trace.jsonl   # one device's spans only
//	xlf-trace -layer core trace.jsonl     # one layer's spans only
//	xlf-trace -ops=false trace.jsonl      # timeline only
//	xlf-trace -width 100 trace.jsonl      # wider timeline
//
// The metrics subcommand renders an xlf-metrics/v1 telemetry artifact
// (written by xlf-bench -telemetry) instead:
//
//	xlf-trace metrics metrics.jsonl             # per-source rollups + dumps
//	xlf-trace metrics -src E10/1000 m.jsonl     # one source only
//	xlf-trace metrics -windows m.jsonl          # plus per-window activity
//
// Exit codes: 0 rendered, 1 unreadable/invalid artifact, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"xlf/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	if len(args) > 0 && args[0] == "metrics" {
		return runMetrics(args[1:], out)
	}
	fs := flag.NewFlagSet("xlf-trace", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		device = fs.String("device", "", "only spans for this device ID")
		layer  = fs.String("layer", "", "only spans for this layer")
		width  = fs.Int("width", 72, "timeline width in columns")
		ops    = fs.Bool("ops", true, "render per-layer/op rollups")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "xlf-trace: exactly one trace file expected (try -h)")
		return 2
	}
	if *width < 10 {
		fmt.Fprintln(os.Stderr, "xlf-trace: -width must be >= 10")
		return 2
	}

	var meta obs.TraceMeta
	var spans []obs.Span
	if code := readFile(fs.Arg(0), func(r io.Reader) (err error) {
		meta, spans, err = obs.ReadTrace(r)
		return err
	}); code != 0 {
		return code
	}

	total := len(spans)
	spans = filter(spans, func(s obs.Span) bool {
		return (*device == "" || s.Device == *device) && (*layer == "" || s.Layer == *layer)
	})
	render(out, meta, spans, total, *width, *ops)
	return 0
}

// readFile opens one artifact and decodes it with read; an unreadable or
// invalid file is exit status 1.
func readFile(path string, read func(io.Reader) error) int {
	f, err := os.Open(path)
	if err == nil {
		err = read(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlf-trace:", err)
		return 1
	}
	return 0
}

// filter keeps the records keep selects, in order.
func filter[T any](recs []T, keep func(T) bool) []T {
	out := recs[:0:0]
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

func render(out io.Writer, meta obs.TraceMeta, spans []obs.Span, total, width int, ops bool) {
	fmt.Fprintf(out, "trace %s  seed=%d clock=%s", meta.Schema, meta.Seed, meta.Clock)
	if meta.Source != "" {
		fmt.Fprintf(out, " source=%s", meta.Source)
	}
	fmt.Fprintf(out, "  spans=%d", total)
	if len(spans) != total {
		fmt.Fprintf(out, " (selected %d)", len(spans))
	}
	fmt.Fprintln(out)
	if meta.Evicted > 0 {
		fmt.Fprintf(out, "WARNING: %d spans were evicted from the ring buffer; the timeline is incomplete\n", meta.Evicted)
	}
	if len(spans) == 0 {
		fmt.Fprintln(out, "no spans")
		return
	}

	min, max := spans[0].Time, spans[0].Time
	byLayer := map[string][]obs.Span{}
	for _, s := range spans {
		if s.Time < min {
			min = s.Time
		}
		if s.Time > max {
			max = s.Time
		}
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)

	fmt.Fprintf(out, "window  %s .. %s  (%s)\n\n", min, max, max-min)
	timeline(out, layers, byLayer, min, max, width)
	if ops {
		fmt.Fprintln(out)
		rollups(out, spans)
	}
}

// timeline draws one density row per layer: the window [min,max] is split
// into width buckets, and each cell's glyph encodes how many spans of that
// layer fall into the bucket.
func timeline(out io.Writer, layers []string, byLayer map[string][]obs.Span, min, max time.Duration, width int) {
	span := max - min
	name := 0
	for _, l := range layers {
		if len(l) > name {
			name = len(l)
		}
	}
	for _, l := range layers {
		counts := make([]int, width)
		for _, s := range byLayer[l] {
			i := 0
			if span > 0 {
				i = int(int64(s.Time-min) * int64(width) / (int64(span) + 1))
			}
			counts[i]++
		}
		row := make([]byte, width)
		for i, c := range counts {
			row[i] = glyph(c)
		}
		fmt.Fprintf(out, "%-*s |%s| %d\n", name, l, row, len(byLayer[l]))
	}
	fmt.Fprintf(out, "%-*s  %s%*s\n", name, "", min.String(), width-len(min.String())+1, max.String())
}

// glyph encodes a bucket count as one timeline cell.
func glyph(n int) byte {
	switch {
	case n == 0:
		return ' '
	case n == 1:
		return '.'
	case n <= 4:
		return ':'
	case n <= 16:
		return '*'
	default:
		return '#'
	}
}

// rollups prints one row per (layer, op): span count, first and last
// occurrence, and — for spans that carry a duration — avg and max latency.
func rollups(out io.Writer, spans []obs.Span) {
	type key struct{ layer, op string }
	type agg struct {
		count, timed   int
		first, last    time.Duration
		sumDur, maxDur time.Duration
	}
	m := map[key]*agg{}
	for _, s := range spans {
		k := key{s.Layer, s.Op}
		a := m[k]
		if a == nil {
			a = &agg{first: s.Time, last: s.Time}
			m[k] = a
		}
		a.count++
		if s.Time < a.first {
			a.first = s.Time
		}
		if s.Time > a.last {
			a.last = s.Time
		}
		if s.Dur > 0 {
			a.timed++
			a.sumDur += s.Dur
			if s.Dur > a.maxDur {
				a.maxDur = s.Dur
			}
		}
	}
	keys := make([]key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].op < keys[j].op
	})

	fmt.Fprintf(out, "%-8s %-14s %7s  %-14s %-14s %-10s %s\n",
		"LAYER", "OP", "COUNT", "FIRST", "LAST", "AVG-DUR", "MAX-DUR")
	for _, k := range keys {
		a := m[k]
		avg, max := "-", "-"
		if a.timed > 0 {
			avg = (a.sumDur / time.Duration(a.timed)).String()
			max = a.maxDur.String()
		}
		fmt.Fprintf(out, "%-8s %-14s %7d  %-14s %-14s %-10s %s\n",
			k.layer, k.op, a.count, a.first, a.last, avg, max)
	}
}
