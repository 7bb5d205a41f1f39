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
// determinism rules: determinism (wall-clock and global-rand calls and
// references in deterministic packages, and their reachability through
// any depth of cross-package helpers), globalmut (writes to mutable
// package-level state reachable from the packages exp.Run runs
// concurrently) and maporder (map iteration order escaping into
// returns, sinks, or unsorted appends). Lock copies and unreachable code
// are go vet's copylocks and unreachable passes, which the CI gate runs
// alongside. See internal/analysis for the rules and DESIGN.md §6 for
// the invariant each one guards.
//
// Usage:
//
//	xlf-vet ./...                      # whole module (the CI gate)
//	xlf-vet ./internal/exp ./cmd/...   # specific packages
//	xlf-vet -sarif ./...               # SARIF 2.1.0 (code-scanning upload)
//	xlf-vet -only lockorder,goroleak ./...  # run only the named rules
//	xlf-vet -parallel 8 ./...          # per-package worker pool
//
// Findings are reported as "file:line: [rule] message" with paths
// relative to the module root; output is deterministic at any -parallel
// setting. Sanctioned exceptions are waived inline with //xlf:allow-*
// markers where they happen; there is no global waiver file. Exit
// status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
package main

import (
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
		sarifOut = fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
		only     = fs.String("only", "", "comma-separated rules to run, dropping all others (layercheck,determinism,errdrop,pairing,cryptomisuse,deadstore,lockorder,goroleak,hotpathalloc,globalmut,maporder,plaintextescape,secretleak)")
		root     = fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
		parallel = fs.Int("parallel", runtime.NumCPU(), "package-level analysis workers")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xlf-vet:", err)
		return 2
	}

	moduleRoot := *root
	if moduleRoot == "" {
		var err error
		if moduleRoot, err = findModuleRoot(); err != nil {
			return fail(err)
		}
	}
	allPkgs, err := analysis.LoadModule(moduleRoot)
	if err != nil {
		return fail(err)
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		return fail(err)
	}

	// Module-scoped analyzers (the call-graph and taint rules) need the
	// whole module to compute cross-package function summaries, even
	// when the command line narrows the packages actually checked.
	analysis.Prepare(allPkgs, analyzers)

	pkgs, err := filterPackages(allPkgs, moduleRoot, fs.Args())
	if err != nil {
		return fail(err)
	}

	findings := analysis.RunParallel(pkgs, analyzers, *parallel)
	relativize(findings, moduleRoot)

	if *sarifOut {
		if err := analysis.WriteSARIF(stdout, analyzers, findings); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "xlf-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relativize rewrites finding paths relative to the module root, so
// output is stable across checkouts. Every path shares
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

// selectAnalyzers returns the configured rule set or — when only is
// non-empty — just the named rules, in their canonical XLFAnalyzers
// order.
func selectAnalyzers(only string) ([]analysis.Analyzer, error) {
	all := analysis.XLFAnalyzers()
	if only == "" {
		return all, nil
	}
	wanted := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	var out []analysis.Analyzer
	for _, a := range all {
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
