package analysis

// Determinism enforces the simulator's reproduction contract: inside
// simulation/experiment packages, nothing may read the wall clock
// (time.Now, time.Since) or draw from the global math/rand generator —
// randomness must come from an injected seeded *rand.Rand and timing
// from an injected clock, so that the same seed replays bit-identically.
// Constructors (rand.New, rand.NewSource, ...) are exempt: they are how
// seeded generators are built.
//
// The rule is one pass over the module-wide call graph, whose edges
// resolve qualifiers by go/types object identity (import aliases are
// caught, locals shadowing an import name stay quiet). Inside a
// deterministic package it reports:
//
//   - a direct call of a primitive;
//   - a bare reference to one (f := time.Now hands the real clock
//     around as a value, a leak the moment anything invokes it);
//   - a boundary call: a call site whose callee lives outside the set and
//     reaches a primitive through any depth of helpers. Every function's
//     fixpoint summary records one witness primitive it may reach;
//     callees inside the set are reported in their own package.
//
// Package-level declarations the graph does not index (var initializers,
// a second init function) are scanned for direct calls too.
//
// A //xlf:allow-wallclock comment on (or directly above) a line, or in
// the enclosing function's doc comment, waives it. A waived primitive
// site produces no fact at all, so the sanctioned measurement code in
// internal/exp stays invisible to every caller; the marker on a
// boundary call site waives that root individually. Test files are
// exempt: tests may time themselves freely.

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AllowWallclockMarker is the escape-hatch annotation for genuine
// benchmark timing inside deterministic packages.
const AllowWallclockMarker = "xlf:allow-wallclock"

// Determinism reports reachability of nondeterministic primitives from
// the deterministic package set.
type Determinism struct {
	// Packages is the deterministic set (exact paths or "prefix/...").
	Packages []string

	graph *CallGraph
	// facts maps funcKey → at most one primitive description the
	// function reaches ("wall-clock read time.Now", ...).
	facts map[string][]string
	// direct holds the per-function direct facts, kept so Chain can
	// identify the fact-bearing endpoint of a witness path.
	direct map[string][]string
}

// NewDeterminism builds the analyzer for the given package set.
func NewDeterminism(packages []string) *Determinism {
	return &Determinism{Packages: packages}
}

// Name implements Analyzer.
func (d *Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (d *Determinism) Doc() string {
	return "simulator packages must stay deterministic: no wall clock, global rand, or map-order iteration"
}

// Marker implements Analyzer.
func (d *Determinism) Marker() string { return AllowWallclockMarker }

// randConstructors build seeded generators and are therefore allowed.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// primitiveDesc classifies a callee key as a nondeterministic
// primitive, returning a diagnostic description or "".
func primitiveDesc(key string) string {
	pkg, recv, name := splitKey(key)
	if recv != "" {
		return "" // methods on seeded *rand.Rand values are fine
	}
	switch pkg {
	case "time":
		if name == "Now" || name == "Since" {
			return "wall-clock read time." + name
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return "global math/rand." + name
		}
	}
	return ""
}

// followDeterminism accepts every precisely-resolved edge: plain,
// deferred and spawned calls, calls inside closures (capturing a clock
// read is already a hazard) and bare references. Fallback-resolved
// edges are excluded — a unique-method-name guess must not manufacture
// a determinism violation.
func followDeterminism(e CallEdge) bool { return !e.Fallback }

// Prepare implements ModuleAnalyzer: collect direct primitive facts
// (skipping waived lines) and run the fixpoint.
func (d *Determinism) Prepare(m *Module) {
	d.graph = m.Graph
	d.direct = make(map[string][]string)
	for _, key := range d.graph.Keys() {
		fn := d.graph.Func(key)
		for _, e := range fn.Edges {
			desc := primitiveDesc(e.Callee)
			if desc != "" && !m.waived(AllowWallclockMarker, fn.Pkg.Fset.Position(e.Pos)) {
				d.direct[key] = append(d.direct[key], desc)
			}
		}
	}
	for key, facts := range d.direct {
		d.direct[key] = dedupSorted(facts)
	}
	d.facts = d.graph.Fixpoint(d.direct, followDeterminism, 1)
}

// Check implements Analyzer: report primitive calls and references,
// and boundary calls, inside deterministic packages.
func (d *Determinism) Check(m *Module, pkg *Package) []Finding {
	if !matchPackages(d.Packages, pkg.ImportPath) {
		return nil
	}
	var out []Finding
	// Direct calls: every declaration, so var initializers and a second
	// init, which the graph does not index, are covered too.
	for fi := range pkg.Files {
		file := &pkg.Files[fi]
		if file.Test {
			continue
		}
		imports := importMap(file.AST)
		ast.Inspect(file.AST, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				key, fallback, ok := d.graph.ResolveKey(pkg, imports, call)
				if desc := primitiveDesc(key); ok && !fallback && desc != "" {
					out = append(out, d.directFinding(pkg, call.Pos(), desc))
				}
			}
			return true
		})
	}
	// References and boundary calls: the graph's edges.
	for _, key := range d.graph.Keys() {
		fn := d.graph.Func(key)
		if fn.Pkg != pkg || fn.File.Test {
			continue
		}
		reported := make(map[token.Pos]bool)
		for _, e := range fn.Edges {
			if e.Fallback || reported[e.Pos] {
				continue
			}
			if desc := primitiveDesc(e.Callee); desc != "" {
				if e.Kind == EdgeRef {
					reported[e.Pos] = true
					out = append(out, pkg.finding(d.Name(), e.Pos,
						"reference to %s in deterministic package %s; inject a clock/seeded generator (or annotate //%s)",
						desc, pkg.ImportPath, AllowWallclockMarker))
				}
				continue
			}
			if matchPackages(d.Packages, keyPkg(e.Callee)) {
				continue // reported inside the callee's own package
			}
			facts := d.facts[e.Callee]
			if len(facts) == 0 {
				continue
			}
			reported[e.Pos] = true
			out = append(out, pkg.finding(d.Name(), e.Pos,
				"call to %s reaches %s (%s) from deterministic package %s; inject a clock/seeded generator (or annotate //%s)",
				FuncDisplay(e.Callee), facts[0], d.witness(e.Callee), pkg.ImportPath, AllowWallclockMarker))
		}
	}
	return out
}

// directFinding reports a primitive called directly at pos.
func (d *Determinism) directFinding(pkg *Package, pos token.Pos, desc string) Finding {
	advice := "draw from an injected seeded *rand.Rand"
	if strings.HasPrefix(desc, "wall-clock") {
		advice = "inject a clock (or annotate //" + AllowWallclockMarker + ")"
	}
	return pkg.finding(d.Name(), pos, "%s in deterministic package %s; %s", desc, pkg.ImportPath, advice)
}

// witness renders the call chain from the boundary callee to the
// fact-bearing function for the diagnostic.
func (d *Determinism) witness(from string) string {
	chain := d.graph.Chain(from, func(k string) bool { return len(d.direct[k]) > 0 }, followDeterminism)
	if chain == nil {
		return "via " + FuncDisplay(from)
	}
	return "via " + displayChain(chain)
}

// keyPkg returns the package component of a summary key.
func keyPkg(key string) string {
	pkg, _, _ := splitKey(key)
	return pkg
}

// matchPackages reports whether set covers importPath (exact entries or
// "prefix/..." patterns), shared by the package-scoped rules.
func matchPackages(set []string, importPath string) bool {
	for _, p := range set {
		if prefix, ok := strings.CutSuffix(p, "/..."); ok {
			if importPath == prefix || strings.HasPrefix(importPath, prefix+"/") {
				return true
			}
		} else if importPath == p {
			return true
		}
	}
	return false
}

// dedupSorted sorts and deduplicates a fact list in place.
func dedupSorted(facts []string) []string {
	if len(facts) < 2 {
		return facts
	}
	sort.Strings(facts)
	out := facts[:1]
	for _, f := range facts[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}
