package analysis

// The module-wide call-graph engine. Three rule families reason about
// what a function reaches *transitively* — the taint engine (which
// values flow where), lockorder (which locks a call may acquire) and
// the determinism layer (does any callee read the wall
// clock, mutate shared package state, or allocate on a hot path). Each
// of them needs the same three ingredients: an index of every declared
// function keyed the way taint.go keys its summaries, resolved call
// edges out of every body, and a bottom-up fixed-point over those
// edges. This file extracts that machinery so all of them share one
// graph (and one tolerant type-check of the module).
//
// Edges are classified by how the callee is reached — a plain call, a
// deferred call, a go statement, a call made inside a nested function
// literal, or a bare method/function value reference — because the
// rules disagree about which of those transfer the caller's context:
// lockorder must not treat a closure's acquisitions as the creator's
// (the closure runs later, with nothing held), while determinism must
// (capturing a wall-clock read is already a determinism hazard). Each
// client passes a follow predicate and gets exactly the reachability
// it means.
//
// Receivers the type oracle cannot resolve fall back to a unique-name
// lookup over the module's declared methods (the taint engine's
// fallback); edges resolved that way carry Fallback=true so
// conservative clients can skip them.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind uint8

// Edge kinds recorded by the builder.
const (
	// EdgeCall is a plain call executed in the caller's frame.
	EdgeCall EdgeKind = iota
	// EdgeDefer is a deferred call: it still runs in the caller's frame,
	// only later.
	EdgeDefer
	// EdgeGo is a go statement: the callee runs on its own goroutine.
	EdgeGo
	// EdgeClosure is a call lexically inside a function literal nested in
	// the caller: it runs when (and if) the literal does.
	EdgeClosure
	// EdgeRef is a method value or function value reference — the callee
	// is not called here, but the reference may be invoked later.
	EdgeRef
)

// CallEdge is one resolved caller→callee edge.
type CallEdge struct {
	// Callee is the summary key of the target (see funcKey).
	Callee string
	// Pos is the call or reference site in the caller's fileset.
	Pos token.Pos
	// Kind records how the callee is reached.
	Kind EdgeKind
	// Fallback marks edges resolved through the unique-method-name
	// heuristic rather than real type information.
	Fallback bool
}

// GraphFunc is one declared function in the built graph.
type GraphFunc struct {
	Key  string
	Pkg  *Package
	File *File
	Decl *ast.FuncDecl
	Recv string
	// Edges is sorted by (Callee, Kind, Pos) and deduplicated, so every
	// traversal of the graph is deterministic.
	Edges []CallEdge
}

// CallGraph is the module's call graph plus the shared type oracle it
// was resolved with. Build is idempotent (first package set wins), so
// several analyzers can share one graph the way they share one oracle.
type CallGraph struct {
	oracle *typeOracle
	built  bool

	funcs map[string]*GraphFunc
	keys  []string // sorted
	// methodsByName backs the unique-name fallback for unresolved
	// receivers.
	methodsByName map[string][]string
}

// NewCallGraph returns an empty graph with its own type oracle; Build
// populates it.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		oracle:        newTypeOracle(),
		funcs:         make(map[string]*GraphFunc),
		methodsByName: make(map[string][]string),
	}
}

// Build indexes every declared function (test files included — clients
// filter on File.Test) and resolves its outgoing edges. The first call
// wins; later calls are no-ops, matching the Prepare idempotence
// contract.
func (g *CallGraph) Build(pkgs []*Package) {
	if g.built {
		return
	}
	g.built = true
	g.oracle.check(pkgs)

	for _, pkg := range pkgs {
		for fi := range pkg.Files {
			file := &pkg.Files[fi]
			for _, decl := range file.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				recv := ""
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					recv = recvTypeName(fd.Recv.List[0].Type)
				}
				key := funcKey(pkg.ImportPath, recv, fd.Name.Name)
				if _, dup := g.funcs[key]; dup {
					continue
				}
				g.funcs[key] = &GraphFunc{Key: key, Pkg: pkg, File: file, Decl: fd, Recv: recv}
				g.keys = append(g.keys, key)
				if recv != "" {
					g.methodsByName[fd.Name.Name] = append(g.methodsByName[fd.Name.Name], key)
				}
			}
		}
	}
	sort.Strings(g.keys)
	for _, name := range g.methodsByName {
		sort.Strings(name)
	}
	for _, key := range g.keys {
		fn := g.funcs[key]
		fn.Edges = g.edgesOf(fn)
	}
}

// Func returns the indexed function for a summary key, or nil.
func (g *CallGraph) Func(key string) *GraphFunc { return g.funcs[key] }

// Keys returns the sorted summary keys of every indexed function.
func (g *CallGraph) Keys() []string { return g.keys }

// edgesOf resolves one function's outgoing edges. Kind classification
// works off lexical position: a call inside any nested FuncLit is
// EdgeClosure; otherwise the exact CallExpr of a defer/go statement is
// EdgeDefer/EdgeGo; everything else is EdgeCall.
func (g *CallGraph) edgesOf(fn *GraphFunc) []CallEdge {
	pt := g.oracle.typesOf(fn.Pkg)
	imports := importMap(fn.File.AST)

	var litRanges [][2]token.Pos
	deferred := make(map[*ast.CallExpr]bool)
	spawned := make(map[*ast.CallExpr]bool)
	callFuns := make(map[ast.Expr]bool)
	// selSels marks every selector's Sel identifier, so the bare-Ident
	// case below only fires for genuinely unqualified references and
	// does not duplicate the selector-level resolution.
	selSels := make(map[*ast.Ident]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litRanges = append(litRanges, [2]token.Pos{n.Pos(), n.End()})
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			spawned[n.Call] = true
		case *ast.SelectorExpr:
			selSels[n.Sel] = true
		case *ast.CallExpr:
			f := n.Fun
			for {
				if p, ok := f.(*ast.ParenExpr); ok {
					f = p.X
					continue
				}
				break
			}
			callFuns[f] = true
		}
		return true
	})
	inLit := func(pos token.Pos) bool {
		for _, r := range litRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	var out []CallEdge
	add := func(key string, pos token.Pos, kind EdgeKind, fallback bool) {
		if kind != EdgeRef && inLit(pos) {
			kind = EdgeClosure
		}
		out = append(out, CallEdge{Callee: key, Pos: pos, Kind: kind, Fallback: fallback})
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c, _ := resolveCall(pt, imports, fn.Pkg.ImportPath, n)
			if c.name == "" {
				return true
			}
			kind := EdgeCall
			switch {
			case deferred[n]:
				kind = EdgeDefer
			case spawned[n]:
				kind = EdgeGo
			}
			if key, fallback, ok := g.calleeKey(c); ok {
				add(key, n.Pos(), kind, fallback)
			}
		case *ast.SelectorExpr:
			if callFuns[n] {
				return true
			}
			// Method value (x.M as a value) via the oracle; package-level
			// function value (pkg.Fn as a value) via Uses.
			if pt != nil {
				if sel, ok := pt.info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					obj := sel.Obj()
					if obj != nil && obj.Pkg() != nil {
						add(funcKey(obj.Pkg().Path(), namedOf(sel.Recv()), obj.Name()), n.Pos(), EdgeRef, false)
					}
					return true
				}
				if f, ok := pt.info.Uses[n.Sel].(*types.Func); ok && f.Pkg() != nil {
					add(funcKey(f.Pkg().Path(), "", f.Name()), n.Pos(), EdgeRef, false)
					return true
				}
			}
			// Syntactic fallback for pkg.Fn references when the oracle has
			// no entry (stubbed imports keep PkgName uses, so this only
			// fires for unchecked packages).
			if id, ok := n.X.(*ast.Ident); ok && !isLocalIdent(pt, id) {
				if path, ok := imports[id.Name]; ok {
					add(funcKey(path, "", n.Sel.Name), n.Pos(), EdgeRef, false)
				}
			}
			return true
		case *ast.Ident:
			if callFuns[n] || selSels[n] {
				return true
			}
			if pt != nil {
				if f, ok := pt.info.Uses[n].(*types.Func); ok && f.Pkg() != nil && f.Type() != nil {
					if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() == nil {
						add(funcKey(f.Pkg().Path(), "", f.Name()), n.Pos(), EdgeRef, false)
					}
				}
			}
		}
		return true
	})

	sort.Slice(out, func(i, j int) bool {
		if out[i].Callee != out[j].Callee {
			return out[i].Callee < out[j].Callee
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Pos < out[j].Pos
	})
	dedup := out[:0]
	for i, e := range out {
		if i == 0 || e != out[i-1] {
			dedup = append(dedup, e)
		}
	}
	return dedup
}

// calleeKey turns a resolved callee into a summary key, applying the
// unique-method-name fallback for unresolved receivers.
func (g *CallGraph) calleeKey(c callee) (key string, fallback, ok bool) {
	if c.recv != "?" {
		return funcKey(c.pkg, c.recv, c.name), false, true
	}
	candidates := g.methodsByName[c.name]
	if len(candidates) != 1 {
		return "", false, false // unknown or ambiguous: stay conservative
	}
	return candidates[0], true, true
}

// ResolveKey resolves a call expression appearing in file to a summary
// key, with the same fallback calleeKey applies. Reporting passes use
// it so their per-site resolution matches the graph's edges exactly.
func (g *CallGraph) ResolveKey(pkg *Package, file *File, imports map[string]string, call *ast.CallExpr) (key string, fallback, ok bool) {
	c, _ := resolveCall(g.oracle.typesOf(pkg), imports, pkg.ImportPath, call)
	if c.name == "" {
		return "", false, false
	}
	return g.calleeKey(c)
}

// Fixpoint computes bottom-up transitive fact sets: every function's
// set is its direct facts unioned with the sets of each callee reached
// through an edge the follow predicate accepts. Sets are sorted and,
// when maxFacts > 0, truncated to their smallest maxFacts elements —
// clients that only need a witness cap at 1 and keep the fixpoint
// cheap. Rounds repeat until nothing changes: a round resolves one more
// call level when callers sort before callees, so any fixed cap would
// silently drop deep chains. Every set only gains facts or trades one
// for a smaller one, over a finite fact universe, so the loop ends.
func (g *CallGraph) Fixpoint(direct map[string][]string, follow func(CallEdge) bool, maxFacts int) map[string][]string {
	out := make(map[string][]string, len(g.keys))
	for changed := true; changed; {
		changed = false
		for _, key := range g.keys {
			fn := g.funcs[key]
			set := make(map[string]bool)
			for _, f := range direct[key] {
				set[f] = true
			}
			for _, e := range fn.Edges {
				if !follow(e) {
					continue
				}
				for _, f := range out[e.Callee] {
					set[f] = true
				}
			}
			facts := make([]string, 0, len(set))
			for f := range set {
				facts = append(facts, f)
			}
			sort.Strings(facts)
			if maxFacts > 0 && len(facts) > maxFacts {
				facts = facts[:maxFacts]
			}
			if !sameStrings(out[key], facts) {
				out[key] = facts
				changed = true
			}
		}
	}
	return out
}

// Chain returns a deterministic shortest call chain (as summary keys,
// both endpoints included) from `from` to the first function isTarget
// accepts, following only edges the predicate allows. It returns nil
// when no such chain exists. BFS over the sorted edge lists makes the
// witness independent of map iteration order.
func (g *CallGraph) Chain(from string, isTarget func(string) bool, follow func(CallEdge) bool) []string {
	if g.funcs[from] == nil {
		return nil
	}
	parent := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if isTarget(cur) {
			var chain []string
			for k := cur; k != ""; k = parent[k] {
				chain = append(chain, k)
			}
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return chain
		}
		fn := g.funcs[cur]
		if fn == nil {
			continue
		}
		for _, e := range fn.Edges {
			if !follow(e) {
				continue
			}
			if _, seen := parent[e.Callee]; seen {
				continue
			}
			parent[e.Callee] = cur
			queue = append(queue, e.Callee)
		}
	}
	return nil
}

// splitKey is funcKey's inverse.
func splitKey(key string) (pkg, recv, name string) {
	parts := strings.SplitN(key, "\x00", 3)
	for len(parts) < 3 {
		parts = append(parts, "")
	}
	return parts[0], parts[1], parts[2]
}

// FuncDisplay renders a summary key for diagnostics: "pkg.Name" or
// "pkg.(Recv).Name" with the import path trimmed to its last segment,
// matching the lock-identity rendering in lockorder.
func FuncDisplay(key string) string {
	pkg, recv, name := splitKey(key)
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		pkg = pkg[i+1:]
	}
	if recv != "" {
		return pkg + ".(" + recv + ")." + name
	}
	if pkg == "" {
		return name
	}
	return pkg + "." + name
}

// displayChain renders a witness chain for a diagnostic message.
func displayChain(chain []string) string {
	parts := make([]string, len(chain))
	for i, k := range chain {
		parts[i] = FuncDisplay(k)
	}
	return strings.Join(parts, " → ")
}
