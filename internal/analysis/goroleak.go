package analysis

// Goroutine-leak detection. The XLF gateway is a long-lived process: a
// goroutine that never terminates, or that blocks forever on a channel
// nobody reads, accumulates across device churn until the process is
// OOM-killed — an availability failure an attacker can force by cycling
// sessions. Three leak shapes are caught, all conservative:
//
//  1. `go func() { for { ... } }()` where the infinite loop contains no
//     exit signal at all — no return, break, goto, channel receive,
//     range, or select. There is no way to stop such a goroutine.
//  2. WaitGroup misuse: Add called *inside* a launched goroutine on a
//     group declared outside it (races with the matching Wait, which
//     can pass before the goroutine is scheduled), and a local
//     WaitGroup that is Added to but never Waited on and never escapes
//     (the launched work outlives the function silently).
//  3. A goroutine that sends on an unbuffered channel created in the
//     same function, where some CFG path from the go statement reaches
//     the function exit without receiving from (or forwarding) the
//     channel. On that path the send blocks forever.
//
// Anything the walker cannot resolve — channels passed in, groups that
// escape, receives behind function calls — stays quiet. A reviewed
// exception is waived with //xlf:allow-goroleak.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AllowGoroLeakMarker waives a goroleak finding on its line (or the
// whole function when placed in the doc comment).
const AllowGoroLeakMarker = "xlf:allow-goroleak"

// GoroLeak detects leak-shaped goroutine launches.
type GoroLeak struct{}

// NewGoroLeak builds the analyzer.
func NewGoroLeak() *GoroLeak { return &GoroLeak{} }

// Name implements Analyzer.
func (g *GoroLeak) Name() string { return "goroleak" }

// Doc implements Analyzer.
func (g *GoroLeak) Doc() string {
	return "launched goroutines need a shutdown path, a receiver for their sends, and Add-before-go WaitGroup use"
}

// Marker implements Analyzer.
func (g *GoroLeak) Marker() string { return AllowGoroLeakMarker }

// Check implements Analyzer. The module's type-check supplies object
// identity, so channel and WaitGroup references resolve through
// shadowing. Test files are skipped: tests launch scaffolding goroutines
// whose lifetime is the test binary's.
func (g *GoroLeak) Check(m *Module, pkg *Package) []Finding {
	pt := m.typesOf(pkg)
	var out []Finding
	for fi := range pkg.Files {
		file := &pkg.Files[fi]
		if file.Test {
			continue
		}
		w := &goroWalker{m: m, pkg: pkg, pt: pt, wgObjs: collectWaitGroups(pt, file.AST)}
		for _, fn := range Functions(file.AST) {
			w.checkFunction(fn)
		}
		out = append(out, w.out...)
	}
	return out
}

// collectWaitGroups maps every sync.WaitGroup-typed object declared in
// the file — vars, params, struct fields — to its declaration position.
// The match is syntactic on the type expression because the tolerant
// checker stubs the sync package.
func collectWaitGroups(pt *pkgTypes, f *ast.File) map[any]token.Pos {
	syncName, ok := importName(f, "sync")
	if !ok {
		syncName = "sync"
	}
	isWG := func(t ast.Expr) bool {
		if st, ok := t.(*ast.StarExpr); ok {
			t = st.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == syncName && sel.Sel.Name == "WaitGroup"
	}
	out := make(map[any]token.Pos)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if n.Type != nil && isWG(n.Type) {
				for _, nm := range n.Names {
					out[identObj(pt, nm)] = nm.Pos()
				}
			}
		case *ast.Field:
			if n.Type != nil && isWG(n.Type) {
				for _, nm := range n.Names {
					out[identObj(pt, nm)] = nm.Pos()
				}
			}
		}
		return true
	})
	return out
}

// goroWalker checks one file's functions.
type goroWalker struct {
	m      *Module
	pkg    *Package
	pt     *pkgTypes
	wgObjs map[any]token.Pos
	out    []Finding
}

func (w *goroWalker) report(pos token.Pos, format string, args ...any) {
	w.out = append(w.out, w.pkg.finding("goroleak", pos, format, args...))
}

// chanMake is one `ch := make(chan T)` site in the function.
type chanMake struct {
	obj  any
	name string
}

// checkFunction runs the three leak rules over one function body.
// Nested literals are enumerated as their own Functions, so the
// shallow collection pass does not descend into them.
func (w *goroWalker) checkFunction(fn Function) {
	if fn.Body == nil {
		return
	}
	var goStmts []*ast.GoStmt
	var chans []chanMake
	var localWGs []*ast.Ident
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goStmts = append(goStmts, n)
			return false
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				id, ok := n.Lhs[i].(*ast.Ident)
				if ok && id.Name != "_" && isUnbufferedChanMake(rhs) {
					chans = append(chans, chanMake{identObj(w.pt, id), id.Name})
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if _, isWG := w.wgObjs[identObj(w.pt, nm)]; isWG {
						localWGs = append(localWGs, nm)
					}
					if i < len(vs.Values) && isUnbufferedChanMake(vs.Values[i]) {
						chans = append(chans, chanMake{identObj(w.pt, nm), nm.Name})
					}
				}
			}
		}
		return true
	})

	for _, gs := range goStmts {
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok {
			w.checkNamedGo(fn, gs)
			continue
		}
		if fs := infiniteForNoExit(lit.Body); fs != nil {
			w.report(fs.Pos(), "goroutine loops forever with no shutdown path (no return, break, receive or select); it can never be stopped")
		}
		w.checkAddInsideGo(lit)
		w.checkUnbufferedSend(fn, gs, lit, chans)
	}
	for _, wg := range localWGs {
		w.checkLocalWaitGroup(fn, wg)
	}
}

// isUnbufferedChanMake matches the single-argument make(chan T) form.
// A buffered channel's sends complete without a rendezvous, so only
// the unbuffered form can strand a sender.
func isUnbufferedChanMake(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	_, isChan := call.Args[0].(*ast.ChanType)
	return isChan
}

// checkNamedGo resolves go statements that launch a named function or
// method — `go spin()`, `go p.run()`, or `f := p.run; go f()` — to the
// callee's declaration in this package and applies the
// unstoppable-loop check to its body. Anything unresolvable (cross-
// package callees, reassigned function variables) stays quiet.
func (w *goroWalker) checkNamedGo(fn Function, gs *ast.GoStmt) {
	fd := w.resolveFuncDecl(fn, gs.Call.Fun, true)
	if fd == nil {
		return
	}
	if infiniteForNoExit(fd.Body) != nil {
		w.report(gs.Pos(), "goroutine %s loops forever with no shutdown path (no return, break, receive or select); it can never be stopped", declDisplay(fd))
	}
}

// resolveFuncDecl resolves a go statement's callee expression to a
// function declared in this package, through the type-check's objects
// and the call graph's function index. With followVars set, an
// identifier bound exactly once to a method or function value inside fn
// resolves through that binding.
func (w *goroWalker) resolveFuncDecl(fn Function, e ast.Expr, followVars bool) *ast.FuncDecl {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		obj = w.pt.info.Uses[e.Sel]
	case *ast.Ident:
		obj = w.pt.info.Uses[e]
	}
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Pkg() == nil || obj.Pkg().Path() != w.pkg.ImportPath {
			return nil
		}
		recv := ""
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = namedOf(sig.Recv().Type())
		}
		if gf := w.m.Graph.Func(funcKey(w.pkg.ImportPath, recv, obj.Name())); gf != nil {
			return gf.Decl
		}
	case *types.Var:
		if _, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && followVars {
			return w.resolveFuncVar(fn, obj)
		}
	}
	return nil
}

// resolveFuncVar resolves a function-typed local that is assigned
// exactly once in fn to the declaration of the method or function value
// it holds; multiple assignments make the target ambiguous.
func (w *goroWalker) resolveFuncVar(fn Function, obj *types.Var) *ast.FuncDecl {
	var rhs ast.Expr
	multiple := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || w.pt.info.Defs[id] != types.Object(obj) && w.pt.info.Uses[id] != types.Object(obj) {
				continue
			}
			if rhs != nil {
				multiple = true
				return false
			}
			rhs = as.Rhs[i]
		}
		return true
	})
	if rhs == nil || multiple {
		return nil
	}
	return w.resolveFuncDecl(fn, rhs, false)
}

// declDisplay names a declaration for diagnostics: "run" or "pump.run".
func declDisplay(fd *ast.FuncDecl) string {
	if recv := declRecv(fd); recv != "" {
		return recv + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// infiniteForNoExit finds a `for { ... }` loop inside a goroutine's
// body — literal or declared — whose body contains no construct that
// could ever leave it or park it on an external signal. Nested function
// literals are opaque.
func infiniteForNoExit(body *ast.BlockStmt) *ast.ForStmt {
	var bad *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			return true
		}
		if !hasExitSignal(fs.Body) {
			bad = fs
			return false
		}
		return true
	})
	return bad
}

// hasExitSignal reports whether the loop body contains any construct
// that can terminate the loop or block on an external event: return,
// break, goto, select, a channel receive or range, or a no-return call
// (panic, os.Exit, log.Fatal).
func hasExitSignal(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.ExprStmt:
			if isNoReturnCall(n.X) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkAddInsideGo flags wg.Add on a WaitGroup declared outside the
// launched literal: the goroutine may not be scheduled before Wait
// runs, so Wait can return while work is still pending.
func (w *goroWalker) checkAddInsideGo(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		declPos, ok := w.wgTarget(sel.X)
		if !ok || (declPos >= lit.Pos() && declPos <= lit.End()) {
			return true
		}
		w.report(call.Pos(), "WaitGroup.Add inside the goroutine races with Wait; call Add before the go statement")
		return true
	})
}

// wgTarget resolves a method receiver expression to a known
// sync.WaitGroup object's declaration position.
func (w *goroWalker) wgTarget(e ast.Expr) (token.Pos, bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return w.wgTarget(v.X)
	case *ast.StarExpr:
		return w.wgTarget(v.X)
	case *ast.Ident:
		pos, ok := w.wgObjs[identObj(w.pt, v)]
		return pos, ok
	case *ast.SelectorExpr:
		if obj := w.pt.info.Uses[v.Sel]; obj != nil {
			pos, ok := w.wgObjs[obj]
			return pos, ok
		}
	}
	return token.NoPos, false
}

// checkLocalWaitGroup flags a function-local WaitGroup with Add but no
// Wait: the goroutines it counts outlive the function unjoined. A
// group that escapes (address taken, assigned, passed, returned) may
// be waited on elsewhere and stays quiet.
func (w *goroWalker) checkLocalWaitGroup(fn Function, decl *ast.Ident) {
	obj := identObj(w.pt, decl)
	accounted := map[*ast.Ident]bool{decl: true}
	var addPos token.Pos
	hasWait := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || identObj(w.pt, id) != obj {
			return true
		}
		accounted[id] = true
		switch sel.Sel.Name {
		case "Add":
			if !addPos.IsValid() {
				addPos = call.Pos()
			}
		case "Wait":
			hasWait = true
		}
		return true
	})
	escaped := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !accounted[id] && identObj(w.pt, id) == obj {
			escaped = true
		}
		return true
	})
	if addPos.IsValid() && !hasWait && !escaped {
		w.report(addPos, "sync.WaitGroup %s is Added to but never Waited on in %s; the launched goroutines outlive the function — call Wait before returning", decl.Name, fn.Name)
	}
}

// checkUnbufferedSend flags a goroutine literal that sends on an
// unbuffered channel made in the enclosing function when some CFG path
// from the go statement reaches the exit without a receive from (or
// any other use of) that channel.
func (w *goroWalker) checkUnbufferedSend(fn Function, gs *ast.GoStmt, lit *ast.FuncLit, chans []chanMake) {
	if len(chans) == 0 {
		return
	}
	var ch chanMake
	foundSend := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if foundSend {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		target := w.rootObj(send.Chan)
		for _, c := range chans {
			if c.obj == target {
				ch, foundSend = c, true
				return false
			}
		}
		return true
	})
	if !foundSend {
		return
	}

	g := BuildCFG(fn.Name, fn.Body)
	var blk *Block
	idx := -1
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n == ast.Node(gs) {
				blk, idx = b, i
			}
		}
	}
	if blk == nil {
		return
	}
	receives := func(n ast.Node) bool {
		// A range head's body is lowered into other blocks; ranging over
		// the channel itself is a receive.
		if r, ok := n.(*ast.RangeStmt); ok && w.rootObj(r.X) == ch.obj {
			return true
		}
		used := false
		inspectNode(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.UnaryExpr:
				used = used || x.Op == token.ARROW && w.rootObj(x.X) == ch.obj
			case *ast.Ident:
				// Any other mention — passed along, closed, captured by
				// another goroutine — may hand the receive obligation off.
				used = used || identObj(w.pt, x) == ch.obj
			}
			return !used
		})
		return used
	}
	if leak := cfgPath(g, blk, idx, nil, receives); leak != nil {
		w.report(gs.Pos(), "goroutine sends on unbuffered channel %s but %s has no receive; the send blocks forever and the goroutine leaks", ch.name, cfgPathDesc(w.pkg, leak))
	}
}

// rootObj resolves a (possibly parenthesised) identifier expression to
// its object key; nil for anything more complex.
func (w *goroWalker) rootObj(e ast.Expr) any {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.Ident:
			return identObj(w.pt, v)
		default:
			return nil
		}
	}
}
