package analysis

// The interprocedural lock-acquisition order graph. XLF's layers share
// state guarded by per-type mutexes (core registry, obs tracer, netsim
// links); a deadlock between two of them freezes the whole gateway — the
// cheapest denial of service there is. This analysis builds a directed
// graph whose nodes are lock identities and whose edges record "A held
// while B acquired", then reports every edge that lies on a cycle.
//
// Lock identity is resolved through the type oracle: a field mutex is
// "pkgpath.Type.field" (one node per field, shared by every instance —
// the usual one-lock-per-object discipline makes that the right
// granularity for ordering), a package-level mutex is "pkgpath.var".
// Receivers the oracle cannot resolve are skipped, not guessed.
//
// Held sets flow through the CFG (forward may-analysis, union at joins)
// so `if c { a.Lock() } else { a.Lock() }` does not self-conflict, and a
// re-lock inside a loop is caught by the back edge. Deferred statements
// are skipped: a deferred Unlock releases at return, which keeps the
// lock correctly held for the rest of the function. Calls into functions
// with their own acquisitions contribute edges through a taint-style
// summary (the transitive set of locks a call may acquire), computed to
// a fixpoint across the module, so an A→B ordering in package x and a
// B→A ordering in package y still form a reportable cycle.
//
// Reports are per-edge with one witness per package, phrased by shape:
// self-edge (re-entrant Lock on a non-reentrant mutex), two-cycle
// (inconsistent order, with the opposite site named), longer cycle.
// A reviewed exception is waived with //xlf:allow-lockorder.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllowLockOrderMarker waives a lockorder finding on its line (or the
// whole function when placed in the doc comment).
const AllowLockOrderMarker = "xlf:allow-lockorder"

// LockOrder builds the module's lock-acquisition graph and reports
// cycles.
type LockOrder struct {
	// summaries maps funcKey → sorted lock ids the function may acquire,
	// transitively.
	summaries map[string][]string
	// edges maps held→acquired pairs to their witness sites.
	edges map[lockEdge][]lockWitness
	adj   map[string]map[string]bool
}

type lockEdge struct{ from, to string }

// lockWitness is one site where the edge's acquisition happened.
type lockWitness struct {
	pkg  *Package
	file *File
	pos  token.Pos
	loc  string // checkout-independent "importpath/file.go:line"
}

// NewLockOrder builds the analyzer.
func NewLockOrder() *LockOrder { return &LockOrder{} }

// Name implements Analyzer.
func (l *LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (l *LockOrder) Doc() string {
	return "lock acquisition order must be consistent module-wide; cycles in the lock graph are potential deadlocks"
}

// Marker implements Analyzer.
func (l *LockOrder) Marker() string { return AllowLockOrderMarker }

// followLockOrder follows plain, deferred and spawned calls — all run
// the callee's acquisitions eventually — but not calls inside nested
// literals (the literal runs as its own function, with nothing of the
// creator's held) and not fallback-resolved edges (a unique-name guess
// must not invent a deadlock).
func followLockOrder(e CallEdge) bool {
	return !e.Fallback && (e.Kind == EdgeCall || e.Kind == EdgeDefer || e.Kind == EdgeGo)
}

// Prepare implements ModuleAnalyzer: compute acquisition summaries to a
// fixpoint over the shared call graph, then walk every CFG recording
// held→acquired edges. Test files participate in summaries and edges
// like any other caller: a deadlock triggered from a test hangs CI
// just as hard (the graph indexes them for exactly this client).
func (l *LockOrder) Prepare(m *Module) {
	l.edges = make(map[lockEdge][]lockWitness)
	l.adj = make(map[string]map[string]bool)
	// Direct acquisitions per function, skipping nested literals; the
	// graph's fixpoint makes them transitive.
	direct := make(map[string][]string)
	for _, key := range m.Graph.Keys() {
		fn := m.Graph.Func(key)
		pt := m.typesOf(fn.Pkg)
		set := make(map[string]bool)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if id, acquire, ok := lockIdOf(pt, call); ok && acquire {
					set[id] = true
				}
			}
			return true
		})
		if len(set) > 0 {
			ids := make([]string, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			direct[key] = ids
		}
	}
	l.summaries = m.Graph.Fixpoint(direct, followLockOrder, 0)

	// Edge pass over every function body, literals included (a literal
	// starts with nothing held: it runs on its own goroutine or later —
	// assuming the creator's locks are still held would invent edges).
	for _, pkg := range m.Pkgs {
		pt := m.typesOf(pkg)
		for fi := range pkg.Files {
			file := &pkg.Files[fi]
			imports := importMap(file.AST)
			for _, fn := range Functions(file.AST) {
				l.recordEdges(pkg, pt, file, imports, fn)
			}
		}
	}
	for e := range l.edges {
		if l.adj[e.from] == nil {
			l.adj[e.from] = make(map[string]bool)
		}
		l.adj[e.from][e.to] = true
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordEdges runs the held-set dataflow over one function's CFG and
// records held→acquired edges. Two passes: fixpoint to converge block
// entry states, then one recording sweep from the converged states.
func (l *LockOrder) recordEdges(pkg *Package, pt *pkgTypes, file *File, imports map[string]string, fn Function) {
	g := BuildCFG(fn.Name, fn.Body)
	in := make([]map[string]bool, len(g.Blocks))
	for i := range in {
		in[i] = make(map[string]bool)
	}
	transfer := func(held map[string]bool, b *Block, record bool) map[string]bool {
		out := make(map[string]bool, len(held))
		for id := range held {
			out[id] = true
		}
		for _, n := range b.Nodes {
			l.transferNode(out, n, pkg, pt, file, imports, record)
		}
		return out
	}
	work := true
	for rounds := 0; work && rounds < 2*len(g.Blocks)+2; rounds++ {
		work = false
		for _, b := range g.Blocks {
			out := transfer(in[b.Index], b, false)
			for _, s := range g.Blocks {
				if !isSucc(b, s) {
					continue
				}
				for id := range out {
					if !in[s.Index][id] {
						in[s.Index][id] = true
						work = true
					}
				}
			}
		}
	}
	for _, b := range g.Blocks {
		transfer(in[b.Index], b, true)
	}
}

func isSucc(b, s *Block) bool {
	for _, x := range b.Succs {
		if x == s {
			return true
		}
	}
	return false
}

// transferNode applies one CFG node to the held set, recording edges
// when asked. Deferred subtrees are skipped entirely (a deferred Unlock
// keeps the lock held to function exit, which is the truth for
// ordering); nested literals are their own functions.
func (l *LockOrder) transferNode(held map[string]bool, n ast.Node, pkg *Package, pt *pkgTypes, file *File, imports map[string]string, record bool) {
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return
	}
	inspectNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if id, acquire, ok := lockIdOf(pt, x); ok {
				if acquire {
					if record {
						l.addEdges(held, []string{id}, pkg, file, x.Pos())
					}
					held[id] = true
				} else {
					delete(held, id)
				}
				return true
			}
			c, _ := resolveCall(pt, imports, pkg.ImportPath, x)
			if c.recv == "?" || c.name == "" {
				return true
			}
			// The callee acquires (and, if balanced, releases) its own
			// locks: edges flow from everything held here into each one.
			if acq := l.summaries[funcKey(c.pkg, c.recv, c.name)]; len(acq) > 0 && record {
				l.addEdges(held, acq, pkg, file, x.Pos())
			}
		}
		return true
	})
}

// addEdges records held→acquired for every pair, at the given site.
func (l *LockOrder) addEdges(held map[string]bool, acquired []string, pkg *Package, file *File, pos token.Pos) {
	if len(held) == 0 {
		return
	}
	from := make([]string, 0, len(held))
	for id := range held {
		from = append(from, id)
	}
	sort.Strings(from)
	line := pkg.Fset.Position(pos).Line
	w := lockWitness{pkg: pkg, file: file, pos: pos, loc: sourceLoc(pkg, file, line)}
	for _, f := range from {
		for _, t := range acquired {
			e := lockEdge{from: f, to: t}
			l.edges[e] = append(l.edges[e], w)
		}
	}
}

// sourceLoc renders a checkout-independent location for cross-references
// inside messages: the package import path plus the file base name.
func sourceLoc(pkg *Package, file *File, line int) string {
	name := file.Name
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			name = name[i+1:]
			break
		}
	}
	return fmt.Sprintf("%s/%s:%d", pkg.ImportPath, name, line)
}

// lockIdOf resolves a Lock/RLock/Unlock/RUnlock call to a stable lock
// identity. Field mutexes key on owner type and field name; package
// scoped mutexes on package path and variable name. Anything else —
// local mutex variables, unresolved receivers — returns !ok.
func lockIdOf(pt *pkgTypes, call *ast.CallExpr) (id string, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	switch recv := sel.X.(type) {
	case *ast.SelectorExpr: // x.mu.Lock()
		if s, found := pt.info.Selections[recv]; found && s.Kind() == types.FieldVal {
			owner := namedOf(s.Recv())
			fobj := s.Obj()
			if owner != "" && fobj != nil && fobj.Pkg() != nil {
				return fobj.Pkg().Path() + "." + owner + "." + fobj.Name(), acquire, true
			}
		}
	case *ast.Ident: // package-level `var mu sync.Mutex`
		if obj := pt.info.Uses[recv]; obj != nil {
			if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), acquire, true
			}
		}
	}
	return "", false, false
}

// Check implements Analyzer: report edges witnessed in this package
// that lie on a cycle. One witness per edge per package keeps the
// output readable; every package on the cycle still gets its own
// report, so cross-package inconsistencies surface on both sides.
func (l *LockOrder) Check(m *Module, pkg *Package) []Finding {
	edges := make([]lockEdge, 0, len(l.edges))
	for e := range l.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	var out []Finding
	for _, e := range edges {
		w, found := l.packageWitness(e, pkg)
		if !found || !l.reaches(e.to, e.from) {
			continue
		}
		var msg string
		switch {
		case e.from == e.to:
			msg = fmt.Sprintf("%s is acquired while already held (self-deadlock on a non-reentrant mutex)", shortLock(e.to))
		case l.adj[e.to][e.from]:
			msg = fmt.Sprintf("inconsistent lock order: %s acquired while holding %s, but the opposite order occurs at %s — a potential deadlock", shortLock(e.to), shortLock(e.from), l.counterSite(e))
		default:
			msg = fmt.Sprintf("%s acquired while holding %s lies on a lock-order cycle (potential deadlock)", shortLock(e.to), shortLock(e.from))
		}
		out = append(out, pkg.finding("lockorder", w.pos, "%s", msg))
	}
	return out
}

// packageWitness picks this package's canonical witness for an edge:
// the earliest position in the package's fileset (file load order is
// name-sorted), so output is deterministic under any scheduling.
func (l *LockOrder) packageWitness(e lockEdge, pkg *Package) (lockWitness, bool) {
	best := lockWitness{}
	found := false
	for _, w := range l.edges[e] {
		if w.pkg != pkg {
			continue
		}
		if !found || w.pos < best.pos {
			best = w
			found = true
		}
	}
	return best, found
}

// counterSite names the globally-smallest witness of the reverse edge
// for the inconsistent-order message. Locations are import-path based,
// so the string is identical on every checkout.
func (l *LockOrder) counterSite(e lockEdge) string {
	rev := lockEdge{from: e.to, to: e.from}
	best := ""
	for _, w := range l.edges[rev] {
		if best == "" || w.loc < best {
			best = w.loc
		}
	}
	if best == "" {
		return "?"
	}
	return best
}

// reaches reports whether `from` reaches `to` in the acquisition graph.
func (l *LockOrder) reaches(from, to string) bool {
	if from == to {
		return l.adj[from][to] || l.selfLoopVia(from)
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range l.adj[cur] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// selfLoopVia reports whether id lies on a cycle through other nodes.
func (l *LockOrder) selfLoopVia(id string) bool {
	for next := range l.adj[id] {
		if next != id && l.reaches(next, id) {
			return true
		}
	}
	return false
}

// shortLock trims the import path to its last segment for readability:
// "xlf/internal/core.Core.mu" → "core.Core.mu".
func shortLock(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
