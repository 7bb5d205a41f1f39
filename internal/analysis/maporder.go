package analysis

// MapOrder automates the bug class PR 4 had to find by review:
// System.attest iterated the device map directly into Core.Ingest, so
// two runs of the same seed attested in different orders and the
// replay hashes diverged. The rule finds every `range` over a map in
// the deterministic packages and reports when the iteration's key or
// value escapes in iteration order:
//
//   - appended to a slice that is never sorted afterwards in the same
//     function (a sort.* / slices.* call naming the slice after the
//     loop launders the order, which is exactly the attest fix);
//   - returned from the enclosing function straight out of the loop
//     body — `for k := range m { return k }` picks an arbitrary
//     element. A return nested under an if/switch inside the loop is
//     treated as a guarded search (`if k == want { return v }`) and
//     stays quiet;
//   - passed to a configured sink (trace emits, report-table rows,
//     Core ingestion) whose observable order then depends on map
//     iteration.
//
// The analysis is intraprocedural and object-based (range variables
// are matched by go/types identity, not name). //xlf:allow-maporder on
// the escape site — or on the range statement, covering the whole
// loop — waives a reviewed exception.

import (
	"go/ast"
)

// AllowMapOrderMarker waives a maporder finding on its line; on the
// range statement's line it waives the whole loop.
const AllowMapOrderMarker = "xlf:allow-maporder"

// MapOrder reports map-iteration order escaping into ordered outputs.
type MapOrder struct {
	// Packages scopes the rule (exact or "prefix/..."), normally the
	// deterministic set.
	Packages []string
	// Sinks are calls whose argument order is observable output.
	Sinks []TaintRef

	sinks *refMatcher
}

// NewMapOrder builds the analyzer.
func NewMapOrder(packages []string, sinks []TaintRef) *MapOrder {
	return &MapOrder{Packages: packages, Sinks: sinks, sinks: newRefMatcher(sinks)}
}

// Name implements Analyzer.
func (mo *MapOrder) Name() string { return "maporder" }

// Doc implements Analyzer.
func (mo *MapOrder) Doc() string {
	return "map iteration order must not flow into returns, sinks, or unsorted slice appends in deterministic packages"
}

// Marker implements Analyzer.
func (mo *MapOrder) Marker() string { return AllowMapOrderMarker }

// Check implements Analyzer.
func (mo *MapOrder) Check(m *Module, pkg *Package) []Finding {
	if !matchPackages(mo.Packages, pkg.ImportPath) {
		return nil
	}
	var out []Finding
	for fi := range pkg.Files {
		file := &pkg.Files[fi]
		if file.Test {
			continue
		}
		imports := importMap(file.AST)
		for _, decl := range file.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &mapOrderWalker{mo: mo, m: m, pkg: pkg, pt: m.typesOf(pkg), imports: imports, fn: fd}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if r, ok := n.(*ast.RangeStmt); ok {
					w.rangeStmt(r)
				}
				return true
			})
			out = append(out, w.out...)
		}
	}
	return out
}

// mapOrderWalker checks the map ranges of one function.
type mapOrderWalker struct {
	mo      *MapOrder
	m       *Module
	pkg     *Package
	pt      *pkgTypes
	imports map[string]string
	fn      *ast.FuncDecl
	out     []Finding
}

func (w *mapOrderWalker) report(pos ast.Node, format string, args ...any) {
	w.out = append(w.out, w.pkg.finding("maporder", pos.Pos(), format, args...))
}

// rangeStmt checks one `range` statement ranging over a map.
func (w *mapOrderWalker) rangeStmt(r *ast.RangeStmt) {
	if !isMap(w.pt, r.X) || w.m.waived(AllowMapOrderMarker, w.pkg.Fset.Position(r.Pos())) {
		return // not a map range, or a waiver on it covers the whole loop
	}
	objs := w.rangeVarObjs(r)
	if len(objs) == 0 {
		return // `for range m {}` observes nothing
	}
	w.walkBody(r, r.Body, objs, 0)
}

// walkBody scans the loop body. guarded counts enclosing if/switch
// nesting inside the loop: a return under a guard is a search, not an
// arbitrary pick. A guard's init statement, condition or tag runs on
// every iteration, so it is scanned at the enclosing level and its
// bodies one level deeper. Nested function literals are skipped (their
// bodies run as their own functions).
func (w *mapOrderWalker) walkBody(r *ast.RangeStmt, body ast.Node, objs map[any]string, guarded int) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			w.walkGuard(r, objs, guarded, n.Init, n.Cond)
			w.walkBody(r, n.Body, objs, guarded+1)
			if n.Else != nil {
				w.walkBody(r, n.Else, objs, guarded+1)
			}
			return false
		case *ast.SwitchStmt:
			w.walkGuard(r, objs, guarded, n.Init, n.Tag)
			w.walkBody(r, n.Body, objs, guarded+1)
			return false
		case *ast.TypeSwitchStmt:
			w.walkGuard(r, objs, guarded, n.Init, n.Assign)
			w.walkBody(r, n.Body, objs, guarded+1)
			return false
		case *ast.SelectStmt:
			w.walkBody(r, n.Body, objs, guarded+1)
			return false
		case *ast.ReturnStmt:
			if guarded == 0 {
				for _, res := range n.Results {
					if name, ok := w.refers(res, objs); ok {
						w.report(n, "map iteration order flows into a return value through %s; collect and sort first (or annotate //%s)",
							name, AllowMapOrderMarker)
						break
					}
				}
			}
			return false
		case *ast.AssignStmt:
			w.appendStmt(r, n, objs)
		case *ast.CallExpr:
			w.sinkCall(n, objs)
		}
		return true
	})
}

// walkGuard scans a guard's init statement and its condition, tag or
// type-switch assignment, either of which may be absent.
func (w *mapOrderWalker) walkGuard(r *ast.RangeStmt, objs map[any]string, guarded int, parts ...ast.Node) {
	for _, p := range parts {
		if p != nil {
			w.walkBody(r, p, objs, guarded)
		}
	}
}

// appendStmt flags `dst = append(dst, ...key/value...)` unless dst is
// sorted later in the enclosing function.
func (w *mapOrderWalker) appendStmt(r *ast.RangeStmt, n *ast.AssignStmt, objs map[any]string) {
	for _, rhs := range n.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) < 2 {
			continue
		}
		name := ""
		for _, a := range call.Args[1:] {
			if n, ok := w.refers(a, objs); ok {
				name = n
				break
			}
		}
		if name == "" {
			continue
		}
		dst, haveDst := rootIdent(call.Args[0])
		if haveDst && w.sortedAfter(r, dst) {
			continue
		}
		dstName := "the slice"
		if haveDst {
			dstName = dst.Name
		}
		w.report(call, "map iteration order flows into append to %s through %s with no sort after the loop; sort %s before use (or annotate //%s)",
			dstName, name, dstName, AllowMapOrderMarker)
	}
}

// sinkCall flags configured sink calls taking key/value-derived
// arguments.
func (w *mapOrderWalker) sinkCall(call *ast.CallExpr, objs map[any]string) {
	c, _ := resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
	if c.name == "" || !w.mo.sinks.match(c, w.pkg.ImportPath, w.imports) {
		return
	}
	for _, a := range call.Args {
		if name, ok := w.refers(a, objs); ok {
			w.report(call, "map iteration order flows into sink %s through %s; iterate sorted keys (or annotate //%s)",
				c.String(), name, AllowMapOrderMarker)
			return
		}
	}
}

// sortedAfter reports whether a sorting call naming dst appears after
// the range statement in the enclosing function. A call sorts when it
// targets sort.* / slices.* directly, or a module helper that reaches
// either package through the call graph (sortStrings-style wrappers).
func (w *mapOrderWalker) sortedAfter(r *ast.RangeStmt, dst *ast.Ident) bool {
	found := false
	ast.Inspect(w.fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < r.End() {
			return true
		}
		c, _ := resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
		if !w.isSortCall(c) {
			return true
		}
		for _, a := range call.Args {
			root, ok := rootIdent(a)
			if !ok {
				continue
			}
			if root.Name == dst.Name {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall reports whether the callee launders ordering: the sort
// or slices package itself, or a module function that reaches one of
// them through precisely-resolved call edges.
func (w *mapOrderWalker) isSortCall(c callee) bool {
	if c.pkg == "sort" || c.pkg == "slices" {
		return true
	}
	key, _, ok := w.m.Graph.calleeKey(c)
	if !ok {
		return false
	}
	chain := w.m.Graph.Chain(key, func(k string) bool {
		pkg := keyPkg(k)
		return pkg == "sort" || pkg == "slices"
	}, func(e CallEdge) bool { return !e.Fallback && e.Kind == EdgeCall })
	return chain != nil
}

// rangeVarObjs collects the range statement's key/value variables by
// object identity (identObj), so shadowing never yields a false match.
func (w *mapOrderWalker) rangeVarObjs(r *ast.RangeStmt) map[any]string {
	objs := make(map[any]string)
	for _, e := range []ast.Expr{r.Key, r.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			objs[identObj(w.pt, id)] = id.Name
		}
	}
	return objs
}

// refers reports whether expr references one of the range variables,
// returning its name.
func (w *mapOrderWalker) refers(expr ast.Expr, objs map[any]string) (string, bool) {
	name, found := "", false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !found {
			name, found = objs[identObj(w.pt, id)]
		}
		return !found
	})
	return name, found
}
