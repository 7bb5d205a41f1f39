// Command xlf-vet runs the repository's cross-layer static analysis:
// the XLF layer import DAG, the simulator determinism contract, error
// discipline in security-critical packages, the path-sensitive CFG
// rules — cryptomisuse (hardcoded/short/math-rand keys, constant or
// reused nonces, non-constant-time MAC compares), pairing (locks, trace
// regions and timers released on every path) and deadstore — the two
// taint dataflow rules, plaintextescape (device payloads must be sealed
// before reaching a network send) and secretleak (token/key material
// must not flow into logs, errors, or metrics labels) — and the
// concurrency-safety layer: lockorder (an interprocedural
// lock-acquisition graph whose cycles are potential deadlocks), goroleak
// (goroutines with no shutdown path, unbuffered sends no path receives,
// WaitGroup.Add racing Wait) and hotpathalloc (functions annotated
// //xlf:hotpath must not contain or call into allocating constructs).
// On top of the module-wide call graph sit the interprocedural
// determinism rules: detflow (wall-clock and global-rand reachability
// from deterministic packages through any depth of cross-package
// helpers), globalmut (writes to mutable package-level state reachable
// from the packages exp.Scheduler runs concurrently) and maporder (map
// iteration order escaping into returns, sinks, or unsorted appends).
// Lock copies and unreachable code are go vet's copylocks and
// unreachable passes, which the CI gate runs alongside. See
// internal/analysis for the rules and DESIGN.md §6 for the invariant
// each one guards.
//
// Usage:
//
//	xlf-vet ./...                      # whole module (the CI gate)
//	xlf-vet ./internal/exp ./cmd/...   # specific packages
//	xlf-vet -json ./...                # machine-readable findings
//	xlf-vet -sarif ./...               # SARIF 2.1.0 (code-scanning upload)
//	xlf-vet -disable errdrop ./...     # drop rules for one run
//	xlf-vet -only lockorder,goroleak ./...  # run only the named rules
//	xlf-vet -baseline vet.json ./...   # report only findings not in the baseline
//	xlf-vet -baseline vet.json -strict-baseline ./...  # stale waivers fail the run
//	xlf-vet -baseline vet.json -write-baseline ./...  # freeze current findings
//	xlf-vet -baseline vet.json -prune-baseline ./...  # drop stale waivers
//	xlf-vet -parallel 8 ./...          # per-package worker pool
//	xlf-vet -fix ./...                 # apply suggested edits for mechanical findings
//
// Findings are reported as "file:line: [rule] message" with paths
// relative to the module root; output is deterministic at any -parallel
// setting. Exit status: 0 when clean (or when every finding is
// suppressed by the baseline), 1 when findings were reported, 2 on usage
// or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"xlf/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xlf-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit findings as JSON")
		sarifOut  = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		disable   = fs.String("disable", "", "comma-separated rules to skip (layercheck,determinism,detflow,errdrop,pairing,cryptomisuse,deadstore,plaintextescape,secretleak,lockorder,goroleak,hotpathalloc,globalmut,maporder)")
		only      = fs.String("only", "", "comma-separated rules to run, dropping all others (same names as -disable)")
		root      = fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
		baseline  = fs.String("baseline", "", "baseline file: suppress the findings recorded in it")
		writeBase = fs.Bool("write-baseline", false, "write current findings to the -baseline file and exit clean")
		pruneBase = fs.Bool("prune-baseline", false, "rewrite the -baseline file with stale waivers removed and exit clean")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "package-level analysis workers")
		fix       = fs.Bool("fix", false, "apply suggested edits for mechanical findings")
		strict    = fs.Bool("strict-baseline", false, "fail (exit 1) when the -baseline file carries stale waivers; requires a full-module run with every rule enabled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "xlf-vet: -json and -sarif are mutually exclusive")
		return 2
	}
	if *writeBase && *baseline == "" {
		fmt.Fprintln(stderr, "xlf-vet: -write-baseline requires -baseline <file>")
		return 2
	}
	if *pruneBase && *baseline == "" {
		fmt.Fprintln(stderr, "xlf-vet: -prune-baseline requires -baseline <file>")
		return 2
	}
	if *pruneBase && *writeBase {
		fmt.Fprintln(stderr, "xlf-vet: -prune-baseline and -write-baseline are mutually exclusive")
		return 2
	}
	if *strict && *baseline == "" {
		fmt.Fprintln(stderr, "xlf-vet: -strict-baseline requires -baseline <file>")
		return 2
	}

	moduleRoot := *root
	if moduleRoot == "" {
		var err error
		moduleRoot, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
	}
	allPkgs, err := analysis.LoadModule(moduleRoot)
	if err != nil {
		fmt.Fprintln(stderr, "xlf-vet:", err)
		return 2
	}

	if *only != "" && *disable != "" {
		fmt.Fprintln(stderr, "xlf-vet: -only and -disable are mutually exclusive")
		return 2
	}
	analyzers, err := selectAnalyzers(*disable, *only)
	if err != nil {
		fmt.Fprintln(stderr, "xlf-vet:", err)
		return 2
	}

	// Module-scoped analyzers (the taint rules) need the whole module to
	// compute cross-package function summaries, even when the command
	// line narrows the packages actually checked.
	analysis.Prepare(allPkgs, analyzers)

	pkgs, err := filterPackages(allPkgs, moduleRoot, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "xlf-vet:", err)
		return 2
	}

	findings := analysis.RunParallel(pkgs, analyzers, *parallel)
	relativize(findings, moduleRoot)

	if *writeBase {
		b := analysis.NewBaseline(findings)
		// Refreshing an existing baseline keeps the justifications its
		// surviving entries carry.
		if old, err := analysis.LoadBaseline(*baseline); err == nil {
			b.Merge(old)
		}
		if err := b.WriteFile(*baseline); err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "xlf-vet: wrote %d finding(s) to %s\n", len(findings), *baseline)
		return 0
	}
	// Stale-waiver detection and pruning only make sense against the
	// full finding set: a narrowed run misses findings in the packages
	// it skipped and would misreport their waivers as stale.
	fullRun := len(pkgs) == len(allPkgs) && len(analyzers) == len(analysis.XLFAnalyzers())
	if *pruneBase {
		if !fullRun {
			fmt.Fprintln(stderr, "xlf-vet: -prune-baseline requires a full-module run with every rule enabled")
			return 2
		}
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
		removed := b.Prune(findings)
		if err := b.WriteFile(*baseline); err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
		fmt.Fprintf(stderr, "xlf-vet: pruned %d stale waiver(s) from %s\n", removed, *baseline)
		return 0
	}
	suppressed := 0
	staleWaivers := 0
	if *baseline != "" {
		b, err := analysis.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
		if *strict && !fullRun {
			// A narrowed run misses findings in skipped packages and would
			// misreport their waivers as stale — failing on that would be
			// noise, and passing would be false confidence.
			fmt.Fprintln(stderr, "xlf-vet: -strict-baseline requires a full-module run with every rule enabled")
			return 2
		}
		if fullRun {
			stale := b.Unmatched(findings)
			staleWaivers = len(stale)
			for _, s := range stale {
				fmt.Fprintf(stderr, "xlf-vet: stale baseline waiver (no finding matches): %s\n", s)
			}
		}
		findings, suppressed = b.Filter(findings)
	}

	if *fix {
		if _, err := applyFixes(moduleRoot, findings, stderr); err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
	}

	switch {
	case *sarifOut:
		if err := analysis.WriteSARIF(stdout, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "xlf-vet:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if suppressed > 0 {
			fmt.Fprintf(stderr, "xlf-vet: %d finding(s), %d suppressed by baseline\n", len(findings), suppressed)
		} else {
			fmt.Fprintf(stderr, "xlf-vet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	if *strict && staleWaivers > 0 {
		fmt.Fprintf(stderr, "xlf-vet: %d stale baseline waiver(s); run -prune-baseline to remove them\n", staleWaivers)
		return 1
	}
	if suppressed > 0 {
		fmt.Fprintf(stderr, "xlf-vet: clean (%d finding(s) suppressed by baseline)\n", suppressed)
	}
	return 0
}

// relativize rewrites finding paths relative to the module root, so
// output (and baselines) are stable across checkouts. Every path shares
// the root prefix, so the sorted order RunParallel returned still holds
// and the output is byte-identical at any worker count.
func relativize(findings []analysis.Finding, root string) {
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = filepath.ToSlash(rel)
		}
	}
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// selectAnalyzers returns the configured rule set minus the disabled
// ones, or — when only is non-empty — just the named rules, in their
// canonical XLFAnalyzers order.
func selectAnalyzers(disable, only string) ([]analysis.Analyzer, error) {
	ruleSet := func(csv string) map[string]bool {
		set := make(map[string]bool)
		for _, name := range strings.Split(csv, ",") {
			if name = strings.TrimSpace(name); name != "" {
				set[name] = true
			}
		}
		return set
	}
	if only != "" {
		wanted := ruleSet(only)
		var out []analysis.Analyzer
		for _, a := range analysis.XLFAnalyzers() {
			if wanted[a.Name()] {
				delete(wanted, a.Name())
				out = append(out, a)
			}
		}
		for name := range wanted {
			return nil, fmt.Errorf("unknown rule %q in -only", name)
		}
		return out, nil
	}
	disabled := ruleSet(disable)
	var out []analysis.Analyzer
	for _, a := range analysis.XLFAnalyzers() {
		if disabled[a.Name()] {
			delete(disabled, a.Name())
			continue
		}
		out = append(out, a)
	}
	for name := range disabled {
		return nil, fmt.Errorf("unknown rule %q in -disable", name)
	}
	return out, nil
}

// filterPackages keeps the packages matching the command-line patterns:
// "./..." (everything), "dir/..." (subtree) or plain directory paths,
// all relative to the module root. No patterns means everything.
func filterPackages(pkgs []*analysis.Package, root string, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	matchers := make([]func(rel string) bool, len(patterns))
	for i, pat := range patterns {
		pat = filepath.ToSlash(filepath.Clean(pat))
		pat = strings.TrimPrefix(pat, "./")
		switch {
		case pat == "..." || pat == ".":
			matchers[i] = func(string) bool { return true }
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			matchers[i] = func(rel string) bool {
				return rel == prefix || strings.HasPrefix(rel, prefix+"/")
			}
		default:
			pat := pat
			matchers[i] = func(rel string) bool { return rel == pat }
		}
	}
	matched := make([]bool, len(patterns))
	var out []*analysis.Package
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil {
			return nil, err
		}
		rel = filepath.ToSlash(rel)
		keep := false
		for i, match := range matchers {
			if match(rel) {
				matched[i] = true
				keep = true
			}
		}
		if keep {
			out = append(out, pkg)
		}
	}
	for i, ok := range matched {
		if !ok {
			return nil, fmt.Errorf("pattern %q matched no packages", patterns[i])
		}
	}
	return out, nil
}
