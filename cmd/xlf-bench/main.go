// Command xlf-bench regenerates every table and figure of the XLF paper
// and runs the quantitative experiment suite (see DESIGN.md's
// per-experiment index). Selection, listing and scheduling are all driven
// by the exp.Registry descriptors; there are no hardcoded experiment
// switches here.
//
// Usage:
//
//	xlf-bench -all                      # everything, report order
//	xlf-bench -all -parallel 8          # same report, worker-pool schedule
//	xlf-bench -exp T2                   # just Table II
//	xlf-bench -exp F4                   # just Figure 4
//	xlf-bench -exp E1,E4,T3             # a comma list of registry IDs
//	xlf-bench -seed 7 -all              # different deterministic seed
//	xlf-bench -all -clock step          # fixed fake clock: byte-identical
//	                                    # output at any -parallel level
//	xlf-bench -all -clock step \
//	          -json out/                # write BENCH_<id>.json artifacts;
//	                                    # compare them with cmp
//	xlf-bench -exp E1 -clock step \
//	          -trace out.jsonl          # cross-layer span trace (xlf-trace/v1);
//	                                    # render with cmd/xlf-trace
//	xlf-bench -exp E10 -clock step \
//	          -telemetry metrics.jsonl \
//	          -rollup-interval 1s       # windowed rollups + flight-recorder
//	                                    # dumps (xlf-metrics/v1); render with
//	                                    # xlf-trace metrics
//	xlf-bench -exp E1,E10 -clock step \
//	          -trace t.jsonl -telemetry m.jsonl  # both, from one run
//
// Host timing is not xlf-bench's job: bench/_perf measures wall time, and
// the root package's Benchmark<ID> functions take go test's profiling
// flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"xlf/internal/exp"
	"xlf/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("xlf-bench", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every registry entry")
		list     = fs.Bool("list", false, "list available tables/figures/experiments")
		expIDs   = fs.String("exp", "", "comma-separated registry IDs: tables T1-T3, figures F1-F4, experiments E1-E10")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		parallel = fs.Int("parallel", 1, "worker-pool size for experiments and inner sweeps")
		jsonDir  = fs.String("json", "", "directory to write BENCH_<id>.json artifacts into")
		clock    = fs.String("clock", exp.ClockWall, "timing source: wall (measured throughput) or step (deterministic output)")
		traceOut = fs.String("trace", "", "file to write the xlf-trace/v1 span timeline into")
		telOut   = fs.String("telemetry", "", "file to write the xlf-metrics/v1 rollup/dump artifact into")
		rollupIv = fs.Duration("rollup-interval", time.Second, "sim-time rollup window length (with -telemetry)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-3s %-11s %s\n", e.ID, e.Kind(), e.Title)
		}
		return 0
	}

	var selection []exp.Experiment
	switch {
	case *all:
		selection = exp.Registry()
	case *expIDs != "":
		for _, id := range strings.Split(*expIDs, ",") {
			e, ok := exp.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "xlf-bench: unknown experiment %q (try -list)\n", strings.TrimSpace(id))
				return 2
			}
			selection = append(selection, e)
		}
	default:
		fs.Usage()
		return 2
	}

	var env *exp.Env
	switch *clock {
	case exp.ClockWall:
		env = exp.NewEnv(*seed)
	case exp.ClockStep:
		env = exp.NewStepEnv(*seed)
	default:
		fmt.Fprintf(os.Stderr, "xlf-bench: -clock must be %q or %q\n", exp.ClockWall, exp.ClockStep)
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintln(os.Stderr, "xlf-bench: -parallel must be >= 1")
		return 2
	}
	env.Workers = *parallel
	if *traceOut != "" {
		env.EnableTracing()
	}
	if *telOut != "" {
		if *rollupIv <= 0 {
			fmt.Fprintln(os.Stderr, "xlf-bench: -rollup-interval must be positive")
			return 2
		}
		env.EnableTelemetry(*rollupIv)
	}

	results := exp.Run(env, selection)
	fmt.Print(exp.Render(results))

	// With -clock step both files are byte-identical across runs and
	// -parallel levels; render them with xlf-trace and xlf-trace metrics.
	ids := make([]string, len(selection))
	for i, e := range selection {
		ids[i] = e.ID
	}
	o := env.Collect(*clock, "xlf-bench "+strings.Join(ids, ","))
	if *traceOut != "" {
		if err := writeFile(*traceOut, "trace", func(w io.Writer) error {
			return obs.WriteTrace(w, o.TraceMeta, o.Spans)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlf-bench:", err)
			return 1
		}
	}
	if *telOut != "" {
		if err := writeFile(*telOut, "telemetry", func(w io.Writer) error {
			return obs.WriteMetrics(w, o.MetricsMeta, o.Windows, o.Dumps)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "xlf-bench:", err)
			return 1
		}
	}

	if *jsonDir != "" {
		meta := exp.RunMeta{Seed: *seed, Clock: *clock}
		paths, err := exp.WriteArtifacts(*jsonDir, results, meta)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xlf-bench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "xlf-bench: wrote %d artifacts to %s\n", len(paths), *jsonDir)
	}
	return 0
}

// writeFile creates path, fills it with write and reports what it wrote.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if werr := write(f); werr != nil {
		f.Close()
		return werr
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xlf-bench: wrote %s to %s\n", what, path)
	return nil
}
