package analysis

// GlobalMut guards the isolation invariant exp.Run rests on: it
// runs experiments on concurrent worker goroutines, so any write to
// mutable package-level state reachable from simulation, network-sim,
// experiment or Core code is shared between experiments — a data race
// and a replay divergence across -parallel levels. The rule finds every assignment (and ++/--) whose target
// resolves to a package-scoped variable, attaches the fact to the
// enclosing function, and propagates it bottom-up over the shared call
// graph. Inside the configured root packages it reports direct writes
// at the assignment and transitive ones at the boundary call site,
// with a witness chain.
//
// init functions are exempt — once-before-main registration runs before
// any worker starts — and so are waived lines: //xlf:allow-globalmut at the
// write site removes the fact for every caller, and at a boundary call
// (or in the calling function's doc comment) waives that root alone.
// Atomic counters mutated through atomic.Add* calls are out of scope:
// the tree uses typed atomics only (DESIGN.md §10).

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllowGlobalMutMarker waives a globalmut finding on its line (or the
// whole function when placed in the doc comment).
const AllowGlobalMutMarker = "xlf:allow-globalmut"

// GlobalMut reports package-level state mutation reachable from the
// scheduler root packages.
type GlobalMut struct {
	// Roots lists the packages (exact or "prefix/...") whose call trees
	// must stay free of global mutation.
	Roots []string

	graph    *CallGraph
	prepared bool
	// facts maps funcKey → at most one global-write description the
	// function reaches.
	facts map[string][]string
	// direct maps funcKey → the function's own write descriptions.
	direct map[string][]string
	// writes maps funcKey → the function's own write sites, for direct
	// reporting inside root packages.
	writes map[string][]globalWrite
}

// globalWrite is one package-level-variable write site.
type globalWrite struct {
	pos  token.Pos
	desc string // "package-level var pkg.name"
}

// NewGlobalMut builds the analyzer on a shared call graph (nil builds
// a private one).
func NewGlobalMut(roots []string, g *CallGraph) *GlobalMut {
	if g == nil {
		g = NewCallGraph()
	}
	return &GlobalMut{Roots: roots, graph: g}
}

// Name implements Analyzer.
func (gm *GlobalMut) Name() string { return "globalmut" }

// Doc implements Documented.
func (gm *GlobalMut) Doc() string {
	return "sim/netsim/exp/core call trees must not mutate package-level state (experiments run concurrently)"
}

// followGlobalMut matches determinism: every precisely-resolved edge
// counts, fallback guesses do not.
func followGlobalMut(e CallEdge) bool { return !e.Fallback }

// Prepare implements ModuleAnalyzer.
func (gm *GlobalMut) Prepare(pkgs []*Package) {
	if gm.prepared {
		return
	}
	gm.prepared = true
	gm.graph.Build(pkgs)

	gm.direct = make(map[string][]string)
	gm.writes = make(map[string][]globalWrite)
	allowed := make(map[*File]map[int]bool)
	for _, key := range gm.graph.Keys() {
		fn := gm.graph.Func(key)
		if fn.Decl.Recv == nil && fn.Decl.Name.Name == "init" {
			continue // once-before-main registration runs before any worker
		}
		pt := gm.graph.oracle.typesOf(fn.Pkg)
		if pt == nil {
			continue
		}
		collect := func(target ast.Expr, pos token.Pos) {
			v := packageLevelVar(pt, target)
			if v == nil {
				return
			}
			if allowed[fn.File] == nil {
				allowed[fn.File] = allowedLines(fn.Pkg.Fset, fn.File.AST, AllowGlobalMutMarker)
			}
			if allowed[fn.File][fn.Pkg.Fset.Position(pos).Line] {
				return
			}
			w := globalWrite{pos: pos, desc: "package-level var " + shortLock(v.Pkg().Path()+"."+v.Name())}
			gm.writes[key] = append(gm.writes[key], w)
			gm.direct[key] = append(gm.direct[key], w.desc)
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range n.Lhs {
					collect(lhs, n.Pos())
				}
			case *ast.IncDecStmt:
				collect(n.X, n.Pos())
			}
			return true
		})
	}
	for key, facts := range gm.direct {
		gm.direct[key] = dedupSorted(facts)
	}
	gm.facts = gm.graph.Fixpoint(gm.direct, followGlobalMut, 1)
}

// packageLevelVar resolves an assignment target's root identifier to a
// package-scoped variable, or nil. Writes through selectors, indexes
// and dereferences count: registry[k] = v mutates the global registry.
func packageLevelVar(pt *pkgTypes, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// pkg.Var resolves via the Sel; field chains via the root.
			if v := pkgVarObj(pt.info.Uses[x.Sel]); v != nil {
				return v
			}
			e = x.X
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			return pkgVarObj(pt.info.Uses[x])
		default:
			return nil
		}
	}
}

// pkgVarObj filters an object down to a package-scoped *types.Var.
func pkgVarObj(obj types.Object) *types.Var {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// Check implements Analyzer: direct writes and boundary calls inside
// the root packages.
func (gm *GlobalMut) Check(pkg *Package) []Finding {
	if !gm.prepared {
		gm.Prepare([]*Package{pkg})
	}
	if !matchPackages(gm.Roots, pkg.ImportPath) {
		return nil
	}
	allowed := make(map[*File]map[int]bool)
	var out []Finding
	for _, key := range gm.graph.Keys() {
		fn := gm.graph.Func(key)
		if fn.Pkg != pkg || fn.File.Test {
			continue
		}
		for _, w := range gm.writes[key] {
			out = append(out, pkg.finding(gm.Name(), w.pos,
				"write to %s in scheduler-root package %s; move it into per-run state (or annotate //%s)",
				w.desc, pkg.ImportPath, AllowGlobalMutMarker))
		}
		if allowed[fn.File] == nil {
			allowed[fn.File] = allowedLines(pkg.Fset, fn.File.AST, AllowGlobalMutMarker)
		}
		waived := allowed[fn.File]
		reported := make(map[token.Pos]bool)
		for _, e := range fn.Edges {
			if e.Fallback || e.Kind == EdgeRef || reported[e.Pos] {
				continue
			}
			if matchPackages(gm.Roots, keyPkg(e.Callee)) {
				continue // reported inside the callee's own package
			}
			facts := gm.facts[e.Callee]
			if len(facts) == 0 || waived[pkg.Fset.Position(e.Pos).Line] {
				continue
			}
			reported[e.Pos] = true
			out = append(out, pkg.finding(gm.Name(), e.Pos,
				"call to %s mutates %s (%s) from scheduler-root package %s; move it into per-run state (or annotate //%s)",
				FuncDisplay(e.Callee), facts[0], gm.witness(e.Callee), pkg.ImportPath, AllowGlobalMutMarker))
		}
	}
	return out
}

// witness renders the chain from the boundary callee to the writing
// function.
func (gm *GlobalMut) witness(from string) string {
	chain := gm.graph.Chain(from, func(k string) bool { return len(gm.direct[k]) > 0 }, followGlobalMut)
	if chain == nil {
		return "via " + FuncDisplay(from)
	}
	return "via " + displayChain(chain)
}

var (
	_ ModuleAnalyzer = (*GlobalMut)(nil)
	_ Documented     = (*GlobalMut)(nil)
)
