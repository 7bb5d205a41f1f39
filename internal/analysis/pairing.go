package analysis

// The resource-pairing rule family: path-sensitive checks, built on the
// CFG, that every acquired resource is released on every path out of the
// function. Two engines share the analyzer:
//
//   - receiver pairing: an acquire method and a release method on the
//     same receiver expression (mutex Lock/Unlock, RLock/RUnlock). After
//     a `mu.Lock()` every path to the exit must pass `mu.Unlock()` or
//     the function must `defer mu.Unlock()`.
//
//   - value pairing: a call that returns an obligation bound to a
//     variable (obs Tracer.Start -> *Region, time.NewTimer -> *Timer)
//     that must be discharged by a release method on that variable
//     (Region.End, Timer.Stop) on all paths. Passing the variable to
//     another function, returning it, storing it into a structure or
//     capturing it in a closure transfers the obligation and discharges
//     the local check.
//
// Deliberate exceptions are waived with a `xlf:allow-pairing` comment.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"slices"
	"strconv"
	"strings"
)

// PairingAllowMarker waives a pairing finding for its line (or whole
// function when placed in the doc comment).
const PairingAllowMarker = "xlf:allow-pairing"

// ReceiverPairSpec pairs an acquire method with its release method on
// the same receiver expression.
type ReceiverPairSpec struct {
	Acquire string // method that opens the obligation ("Lock")
	Release string // method that discharges it ("Unlock")
}

// ValuePairSpec describes a call whose bound result carries an
// obligation discharged by a release method on the result.
type ValuePairSpec struct {
	// PkgPath/Func match a package-level acquire call (import path +
	// function name), e.g. "time" + "NewTimer". Empty when the acquire
	// is a method.
	PkgPath string
	Func    string
	// Methods match acquire method calls by name (e.g. Start, StartAt).
	// To keep false positives down when the type oracle cannot resolve
	// the callee, ResultType additionally names the intra-module named
	// type (sans package) the result must have when type info is
	// available ("Region"); with no type info the method name alone
	// matches.
	Methods    []string
	ResultType string
	// Release methods discharge the obligation ("End", "EndAt", "Stop").
	Release []string
	// What the resource is called in diagnostics ("trace region").
	Noun string
}

// pairingAnalyzer runs both engines over every function CFG.
type pairingAnalyzer struct {
	recv  []ReceiverPairSpec
	value []ValuePairSpec
}

// NewPairingAnalyzer builds the pairing analyzer with the given specs.
func NewPairingAnalyzer(recv []ReceiverPairSpec, value []ValuePairSpec) Analyzer {
	return &pairingAnalyzer{recv: recv, value: value}
}

func (a *pairingAnalyzer) Name() string { return "pairing" }
func (a *pairingAnalyzer) Doc() string {
	return "acquired resources (locks, trace regions, timers) must be released on every path"
}
func (a *pairingAnalyzer) Marker() string { return PairingAllowMarker }

func (a *pairingAnalyzer) Check(m *Module, pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		imports := importMap(f.AST)
		for _, fn := range Functions(f.AST) {
			w := &pairWalker{a: a, pkg: pkg, imports: imports, pt: m.typesOf(pkg), g: BuildCFG(fn.Name, fn.Body)}
			for _, b := range w.g.Blocks {
				for i, n := range b.Nodes {
					w.checkReceiverAcquires(b, i, n)
					w.checkValueAcquires(b, i, n)
				}
			}
			out = append(out, w.out...)
		}
	}
	return out
}

// pairWalker checks one function's CFG.
type pairWalker struct {
	a       *pairingAnalyzer
	pkg     *Package
	imports map[string]string
	pt      *pkgTypes
	g       *CFG
	out     []Finding
}

func (w *pairWalker) report(pos token.Pos, format string, args ...any) {
	w.out = append(w.out, w.pkg.finding("pairing", pos, format, args...))
}

// exprText renders an expression as compact source text; used to match
// receiver expressions structurally ("s.mu" == "s.mu").
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	_ = cfg.Fprint(&buf, token.NewFileSet(), e)
	return strings.Join(strings.Fields(buf.String()), " ")
}

// methodCall matches call as a method call `recv.Name(...)`; package
// qualified calls (pkg.Func) are excluded by the file's imports.
func (w *pairWalker) methodCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	if id, isID := sel.X.(*ast.Ident); isID && w.imports[id.Name] != "" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// ---------------------------------------------------------------------
// Engine 1: receiver pairing (mutexes).

// checkReceiverAcquires scans node n for acquire method calls and
// verifies each is released on every path.
func (w *pairWalker) checkReceiverAcquires(b *Block, idx int, n ast.Node) {
	inspectNode(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false // literal bodies have their own CFG
		}
		call, isCall := x.(*ast.CallExpr)
		if !isCall {
			return true
		}
		recv, name, ok := w.methodCall(call)
		if !ok || len(call.Args) != 0 {
			return true
		}
		for _, spec := range w.a.recv {
			if name != spec.Acquire {
				continue
			}
			recvText := exprText(recv)
			releases := func(call *ast.CallExpr) bool {
				r, name, ok := w.methodCall(call)
				return ok && name == spec.Release && exprText(r) == recvText
			}
			if w.deferredRelease(releases) {
				continue
			}
			// A closure that releases the lock (handed to a helper, run
			// deferred, ...) discharges the local obligation too.
			if blk := cfgPath(w.g, b, idx, nil, func(node ast.Node) bool { return containsCall(node, releases) }); blk != nil {
				w.report(call.Pos(),
					"%s.%s() is not paired with %s.%s() on the path reaching %s; release on every path or defer the release",
					recvText, spec.Acquire, recvText, spec.Release, cfgPathDesc(w.pkg, blk))
			}
		}
		return true
	})
}

// deferredRelease reports whether any deferred call releases the
// obligation, directly or inside a deferred closure.
func (w *pairWalker) deferredRelease(releases func(*ast.CallExpr) bool) bool {
	for _, d := range w.g.Defers {
		if lit, isLit := d.Fun.(*ast.FuncLit); releases(d) || isLit && containsCall(lit.Body, releases) {
			return true
		}
	}
	return false
}

// containsCall reports whether n (a CFG node: a range head counts only
// its operands) contains a call pred accepts.
func containsCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	inspectNode(n, func(x ast.Node) bool {
		if call, isCall := x.(*ast.CallExpr); isCall && !found {
			found = pred(call)
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------
// Engine 2: value pairing (trace regions, timers).

// checkValueAcquires matches nodes that bind an acquire call's result to
// a variable (or drop it) and verifies the release.
func (w *pairWalker) checkValueAcquires(b *Block, idx int, n ast.Node) {
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		call, isCall := rhs.(*ast.CallExpr)
		if !isCall {
			return
		}
		spec, ok := w.matchValueAcquire(call)
		if !ok {
			return
		}
		id, isID := lhs.(*ast.Ident)
		if !isID {
			return // stored straight into a field/slot: obligation escapes
		}
		if id.Name == "_" {
			w.report(call.Pos(), "%s from %s is discarded; it must be released with %s",
				spec.Noun, exprText(call.Fun), releaseList(spec))
			return
		}
		releases := func(call *ast.CallExpr) bool {
			recv, name, ok := w.methodCall(call)
			r, isID := recv.(*ast.Ident)
			return ok && isID && r.Name == id.Name && slices.Contains(spec.Release, name)
		}
		if w.deferredRelease(releases) {
			return
		}
		if blk := cfgPath(w.g, b, idx, nil, func(node ast.Node) bool { return w.valueUse(node, id.Name, spec) }); blk != nil {
			w.report(call.Pos(), "%s %q from %s is not released with %s on the path reaching %s",
				spec.Noun, id.Name, exprText(call.Fun), releaseList(spec), cfgPathDesc(w.pkg, blk))
		}
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				bind(n.Lhs[i], n.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, isGen := n.Decl.(*ast.GenDecl); isGen {
			for _, s := range gd.Specs {
				if vs, isVal := s.(*ast.ValueSpec); isVal && len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						bind(vs.Names[i], vs.Values[i])
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, isCall := n.X.(*ast.CallExpr); isCall {
			if spec, ok := w.matchValueAcquire(call); ok {
				w.report(call.Pos(), "%s from %s is discarded; it must be released with %s",
					spec.Noun, exprText(call.Fun), releaseList(spec))
			}
		}
	}
}

func releaseList(spec ValuePairSpec) string { return strings.Join(spec.Release, "/") }

// matchValueAcquire reports whether call opens a value obligation.
func (w *pairWalker) matchValueAcquire(call *ast.CallExpr) (ValuePairSpec, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return ValuePairSpec{}, false
	}
	id, _ := sel.X.(*ast.Ident)
	qualified := id != nil && w.imports[id.Name] != ""
	for _, spec := range w.a.value {
		// Package-level acquire: pkg.Func where pkg imports spec.PkgPath.
		if qualified && w.imports[id.Name] == spec.PkgPath && sel.Sel.Name == spec.Func {
			return spec, true
		}
		// Method acquire: name match plus result-type confirmation when
		// the type-check resolved the call.
		if qualified || !slices.Contains(spec.Methods, sel.Sel.Name) {
			continue
		}
		if tv, resolved := w.pt.info.Types[call]; resolved && tv.Type != nil {
			if name := namedOf(tv.Type); name != "" && name != spec.ResultType {
				continue // resolved to something else: not ours
			}
		}
		return spec, true
	}
	return ValuePairSpec{}, false
}

// valueUse reports whether node discharges the obligation bound to
// varName: a release method call on it, or an escape that hands it to
// someone else — passed, returned, sent, stored, aliased, its address
// taken or captured by a closure. An overwrite of the variable orphans
// the old obligation, but a rebind from the same acquire family
// (r = tracer.Start(...) in a loop) is treated as an escape of the old
// value to keep the check conservative.
func (w *pairWalker) valueUse(n ast.Node, varName string, spec ValuePairSpec) bool {
	isVar := func(e ast.Expr) bool {
		id, isID := e.(*ast.Ident)
		return isID && id.Name == varName
	}
	if asg, isAsg := n.(*ast.AssignStmt); isAsg && slices.ContainsFunc(asg.Lhs, isVar) {
		return true
	}
	used := false
	inspectNode(n, func(x ast.Node) bool {
		if used {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			ast.Inspect(x.Body, func(y ast.Node) bool {
				e, _ := y.(ast.Expr)
				used = used || isVar(e)
				return !used
			})
			return false
		case *ast.CallExpr:
			if recv, name, ok := w.methodCall(x); ok && isVar(recv) {
				used = slices.Contains(spec.Release, name)
				return !used
			}
			used = slices.ContainsFunc(x.Args, isVar)
		case *ast.ReturnStmt:
			used = slices.ContainsFunc(x.Results, isVar)
		case *ast.SendStmt:
			used = isVar(x.Value)
		case *ast.AssignStmt:
			used = slices.ContainsFunc(x.Rhs, isVar)
		case *ast.KeyValueExpr:
			used = isVar(x.Value)
		case *ast.UnaryExpr:
			used = x.Op == token.AND && isVar(x.X)
		}
		return !used
	})
	return used
}

// ---------------------------------------------------------------------
// Shared path search.

// cfgPath searches the CFG paths that start just after Nodes[idx] of b
// for one reaching a goal — a node goal accepts, or the exit when goal
// is nil — before any node stop accepts. It returns the goal node's
// block (for the exit, the block the path leaves from) on the first
// such path, or nil when every path is stopped. Shared by pairing,
// goroleak and the nonce-reuse check.
func cfgPath(g *CFG, b *Block, idx int, goal func(*Block, int) bool, stop func(ast.Node) bool) *Block {
	scan := func(blk *Block, from int) (found, stopped bool) {
		for i := from; i < len(blk.Nodes); i++ {
			if goal != nil && goal(blk, i) {
				return true, false
			}
			if stop(blk.Nodes[i]) {
				return false, true
			}
		}
		return false, false
	}
	if found, stopped := scan(b, idx+1); found || stopped {
		if found {
			return b
		}
		return nil
	}
	seen := map[*Block]bool{}
	var walk func(blk, from *Block) *Block
	walk = func(blk, from *Block) *Block {
		if blk == g.Exit && goal == nil {
			return from
		}
		if seen[blk] {
			return nil
		}
		seen[blk] = true
		if found, stopped := scan(blk, 0); found || stopped {
			if found {
				return blk
			}
			return nil
		}
		for _, s := range blk.Succs {
			if hit := walk(s, blk); hit != nil {
				return hit
			}
		}
		return nil
	}
	for _, s := range b.Succs {
		if hit := walk(s, b); hit != nil {
			return hit
		}
	}
	return nil
}

// cfgPathDesc names where a leaking path leaves the function.
func cfgPathDesc(pkg *Package, b *Block) string {
	line := "?"
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		if pos := b.Nodes[i].Pos(); pos.IsValid() {
			line = strconv.Itoa(pkg.Fset.Position(pos).Line)
			break
		}
	}
	if b.Panics {
		return "a panic exit (line " + line + ")"
	}
	return "the return at line " + line
}
