// Command bench-compare diffs two BENCH_*.json artifact sets produced by
// cmd/xlf-bench -json and reports regressions: experiments that vanished,
// headline numbers that moved beyond tolerance, rendered output that
// changed under a deterministic clock, and wall-clock slowdowns. CI runs
// it as a non-blocking regression report; locally it is the review tool
// for any PR that claims a perf win.
//
// Usage:
//
//	bench-compare -base out/main -new out/branch
//	bench-compare -base a -new b -tolerance 0.05 -wall-tolerance 0.5
//
// Exit status: 0 no regressions, 1 regressions found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"xlf/internal/exp"
	"xlf/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("bench-compare", flag.ContinueOnError)
	var (
		baseDir = fs.String("base", "", "baseline artifact directory")
		newDir  = fs.String("new", "", "candidate artifact directory")
		numTol  = fs.Float64("tolerance", 0.01, "relative tolerance for headline-number drift")
		wallTol = fs.Float64("wall-tolerance", 0.30, "relative tolerance for wall-clock slowdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *newDir == "" {
		fmt.Fprintln(os.Stderr, "bench-compare: both -base and -new are required")
		fs.Usage()
		return 2
	}

	base, baseIDs, err := exp.ReadArtifactDir(*baseDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		return 2
	}
	cand, _, err := exp.ReadArtifactDir(*newDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "bench-compare: no BENCH_*.json artifacts in %s\n", *baseDir)
		return 2
	}

	var regressions, notes []string
	t := metrics.NewTable("", "Exp", "Wall base", "Wall new", "Ratio", "Numbers", "Output")
	for _, id := range baseIDs {
		b := base[id]
		n, ok := cand[id]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: missing from %s", id, *newDir))
			t.AddRow(id, wallStr(b), "-", "-", "-", "MISSING")
			continue
		}
		drifted := numberDrift(b, n, *numTol, &regressions)
		outCell := outputCell(b, n, &regressions, &notes)
		ratio, ratioCell := wallRatio(b, n)
		if ratio > 1+*wallTol {
			regressions = append(regressions, fmt.Sprintf("%s: wall time %.2fx baseline (%s -> %s)",
				id, ratio, wallStr(b), wallStr(n)))
		}
		numCell := "ok"
		if drifted > 0 {
			numCell = fmt.Sprintf("%d drifted", drifted)
		}
		t.AddRow(id, wallStr(b), wallStr(n), ratioCell, numCell, outCell)
	}
	var added []string
	for id := range cand {
		if _, ok := base[id]; !ok {
			added = append(added, id)
		}
	}
	sort.Strings(added)
	for _, id := range added {
		notes = append(notes, fmt.Sprintf("%s: new experiment (no baseline)", id))
	}

	fmt.Fprint(w, t.String())
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	if len(regressions) == 0 {
		fmt.Fprintln(w, "bench-compare: no regressions")
		return 0
	}
	fmt.Fprintf(w, "bench-compare: %d regression(s)\n", len(regressions))
	for _, r := range regressions {
		fmt.Fprintln(w, "REGRESSION:", r)
	}
	return 1
}

// numberDrift flags headline numbers that moved beyond tol or vanished,
// appending to regressions; it returns how many drifted.
func numberDrift(b, n *exp.Artifact, tol float64, regressions *[]string) int {
	keys := make([]string, 0, len(b.Numbers))
	for k := range b.Numbers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	drifted := 0
	for _, k := range keys {
		bv := b.Numbers[k]
		nv, ok := n.Numbers[k]
		if !ok {
			drifted++
			*regressions = append(*regressions, fmt.Sprintf("%s: number %q missing", b.ID, k))
			continue
		}
		if relDiff(bv, nv) > tol {
			drifted++
			*regressions = append(*regressions, fmt.Sprintf("%s: %s drifted %v -> %v", b.ID, k, bv, nv))
		}
	}
	return drifted
}

// outputCell scores the rendered-output hash. Under a step clock the hash
// is part of the reproduction contract, so a change is a regression; under
// a wall clock the output embeds measured throughput and a change is only
// a note.
func outputCell(b, n *exp.Artifact, regressions, notes *[]string) string {
	if b.OutputSHA256 == n.OutputSHA256 {
		return "identical"
	}
	if b.Clock == exp.ClockStep && n.Clock == exp.ClockStep {
		*regressions = append(*regressions, fmt.Sprintf("%s: step-clock output hash changed", b.ID))
		return "CHANGED"
	}
	*notes = append(*notes, fmt.Sprintf("%s: output differs (wall-clock run; expected)", b.ID))
	return "differs"
}

// wallRatio returns new/base wall time and its rendered cell.
func wallRatio(b, n *exp.Artifact) (float64, string) {
	if b.Telemetry == nil || n.Telemetry == nil || b.Telemetry.WallNS <= 0 {
		return 0, "-"
	}
	r := float64(n.Telemetry.WallNS) / float64(b.Telemetry.WallNS)
	return r, fmt.Sprintf("%.2fx", r)
}

func wallStr(a *exp.Artifact) string {
	if a == nil || a.Telemetry == nil || a.Telemetry.WallNS < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", float64(a.Telemetry.WallNS)/1e6)
}

// relDiff is |a-b| relative to max(|a|,|b|); exact zeros compare equal.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
