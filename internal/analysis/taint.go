package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AllowTaintMarker waives a taint finding on a line where the flow is
// deliberate and reviewed (e.g. a diagnostic that intentionally prints a
// redacted token).
const AllowTaintMarker = "xlf:allow-taint"

// TaintRef names one function or method in a source/sink/sanitizer
// table. Pkg is the declaring package's import path; Recv is the bare
// receiver type name for methods ("" for package-level functions).
type TaintRef struct {
	Pkg  string
	Recv string
	Name string
}

func (r TaintRef) String() string {
	if r.Recv != "" {
		return r.Pkg + ".(" + r.Recv + ")." + r.Name
	}
	return r.Pkg + "." + r.Name
}

// TaintRule configures one dataflow invariant: values returned by a
// Source must pass through a Sanitizer before reaching a Sink.
type TaintRule struct {
	// RuleName is the diagnostic and -only identifier.
	RuleName string
	// RuleDoc is the one-line description used for SARIF rule metadata.
	RuleDoc string
	// Tainted names the protected value class in diagnostics
	// ("plaintext device payload").
	Tainted string
	// Advice tells the author how to fix a finding ("seal it with the
	// device's channel session").
	Advice string

	Sources    []TaintRef
	Sinks      []TaintRef
	Sanitizers []TaintRef
}

// Taint is the cross-layer dataflow analyzer: an intraprocedural engine
// with lightweight interprocedural function summaries, computed to a
// fixed point over the module's call graph during Prepare.
//
// The taint domain is a bitset: one bit marks source-derived values, the
// rest mark "derived from parameter i" while a function summary is being
// computed. Taint is monotone — once a value is tainted it stays tainted
// for the rest of the function — which keeps the fixed point trivially
// terminating at the cost of flagging rare patterns like reusing one
// variable for both plain and sealed bytes (use a fresh variable, or
// waive with //xlf:allow-taint).
//
// Soundness caveats (documented in DESIGN.md §6): the engine does not
// track flows through package-level variables, struct-field granularity
// (a struct holding a tainted field is wholly tainted), or mutation of
// arguments by callees other than the conservative receiver/pointer
// rule; reflection and interface dynamic dispatch resolve only when the
// tolerant type-checker recovers the concrete method.
type Taint struct {
	Rule TaintRule

	// graph, when set, supplies the module's function index (and the
	// type oracle behind it) so the taint suite shares one call graph
	// with the concurrency and determinism layers.
	graph    *CallGraph
	oracle   *typeOracle
	prepared bool

	sources, sinks, sanitizers *refMatcher

	// funcs indexes every non-test function declaration in the prepared
	// module by its summary key.
	funcs map[string]*taintFunc
	// methodsByName supports unknown-receiver fallback lookups.
	methodsByName map[string][]string
	// summaries is the fixed-point result of Prepare.
	summaries map[string]*taintSummary
}

// NewTaintSuite builds one analyzer per rule, all sharing the given
// call graph's tolerant type-check and function index (a nil graph
// gets a private one).
func NewTaintSuite(g *CallGraph, rules ...TaintRule) []Analyzer {
	if g == nil {
		g = NewCallGraph()
	}
	out := make([]Analyzer, len(rules))
	for i, r := range rules {
		out[i] = &Taint{
			Rule:       r,
			graph:      g,
			oracle:     g.oracle,
			sources:    newRefMatcher(r.Sources),
			sinks:      newRefMatcher(r.Sinks),
			sanitizers: newRefMatcher(r.Sanitizers),
		}
	}
	return out
}

// Name implements Analyzer.
func (t *Taint) Name() string { return t.Rule.RuleName }

// Doc implements Documented.
func (t *Taint) Doc() string { return t.Rule.RuleDoc }

// taintVal is the dataflow lattice element: bit 62 marks source-derived
// values; bits 0..61 mark parameter-derived values during summary
// computation (functions with more parameters share the last bit).
type taintVal uint64

const (
	taintSource  taintVal = 1 << 62
	maxParamBits          = 62
)

func paramBit(i int) taintVal {
	if i >= maxParamBits {
		i = maxParamBits - 1
	}
	return 1 << uint(i)
}

// taintFunc is one function declaration in the prepared module.
type taintFunc struct {
	pkg  *Package
	file *File
	decl *ast.FuncDecl
	key  string
	// params holds the state keys of the receiver (if any) followed by
	// the declared parameters; nil entries are unnamed parameters.
	params []any
	ref    TaintRef
}

// taintSummary is the interprocedural behaviour of one function under
// one rule.
type taintSummary struct {
	// introduces: some result carries source taint created inside.
	introduces bool
	// propagates[i]: taint on param i reaches a result.
	propagates []bool
	// sinks[i] names the sink param i reaches ("" = none).
	sinks []string
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if s.introduces != o.introduces || len(s.propagates) != len(o.propagates) {
		return false
	}
	for i := range s.propagates {
		if s.propagates[i] != o.propagates[i] || s.sinks[i] != o.sinks[i] {
			return false
		}
	}
	return true
}

// funcKey builds the summary-map key for a resolved callee.
func funcKey(pkg, recv, name string) string {
	return pkg + "\x00" + recv + "\x00" + name
}

// Prepare type-checks the module and computes function summaries to a
// fixed point over the call graph. The first call wins; see
// ModuleAnalyzer.
func (t *Taint) Prepare(pkgs []*Package) {
	if t.prepared {
		return
	}
	t.prepared = true
	t.graph.Build(pkgs)

	// The graph indexes every declaration (test files included, for the
	// concurrency rules); taint summarizes production code only.
	t.funcs = make(map[string]*taintFunc)
	t.methodsByName = make(map[string][]string)
	t.summaries = make(map[string]*taintSummary)
	for _, key := range t.graph.Keys() {
		gf := t.graph.Func(key)
		if gf.File.Test {
			continue
		}
		pt := t.oracle.typesOf(gf.Pkg)
		fd := gf.Decl
		tf := &taintFunc{pkg: gf.Pkg, file: gf.File, decl: fd, key: key}
		if fd.Recv != nil && len(fd.Recv.List) > 0 {
			tf.params = append(tf.params, fieldKeys(pt, fd.Recv.List[0])...)
		}
		for _, f := range fd.Type.Params.List {
			tf.params = append(tf.params, fieldKeys(pt, f)...)
		}
		tf.ref = TaintRef{Pkg: gf.Pkg.ImportPath, Recv: gf.Recv, Name: fd.Name.Name}
		t.funcs[key] = tf
		if gf.Recv != "" {
			t.methodsByName[fd.Name.Name] = append(t.methodsByName[fd.Name.Name], key)
		}
	}

	// Fixed point: start every module function at the bottom summary (no
	// taint in, out or to a sink), then recompute every summary with the
	// current map until nothing changes. Starting from bottom keeps module
	// callees off call's conservative unknown-callee path, so summaries
	// only grow over finitely many bits and the loop terminates; a round
	// cap would drop flows deeper than it.
	keys := make([]string, 0, len(t.funcs))
	for k, tf := range t.funcs {
		keys = append(keys, k)
		t.summaries[k] = &taintSummary{
			propagates: make([]bool, len(tf.params)),
			sinks:      make([]string, len(tf.params)),
		}
	}
	sort.Strings(keys)
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			tf := t.funcs[k]
			s := t.summarize(tf)
			if !s.equal(t.summaries[k]) {
				t.summaries[k] = s
				changed = true
			}
		}
	}
}

// fieldKeys returns one state key per declared name in a parameter or
// receiver field (nil for unnamed/blank names).
func fieldKeys(pt *pkgTypes, f *ast.Field) []any {
	if len(f.Names) == 0 {
		return []any{nil}
	}
	keys := make([]any, len(f.Names))
	for i, n := range f.Names {
		if n.Name == "_" {
			continue
		}
		if pt != nil {
			if obj := pt.info.Defs[n]; obj != nil {
				keys[i] = obj
				continue
			}
		}
		keys[i] = "ident:" + n.Name
	}
	return keys
}

// recvTypeName extracts the bare receiver type name from its AST.
func recvTypeName(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.IndexExpr: // generic receiver
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

// summarize computes one function's summary with parameters seeded.
func (t *Taint) summarize(tf *taintFunc) *taintSummary {
	w := t.newWalker(tf.pkg, tf.file)
	w.summaryMode = true
	// A parameter keeps the first sink it recorded. Which sink a parameter
	// reaches first can change as callee summaries grow, and around a call
	// cycle those names could rotate forever; pinned names cannot.
	w.sinkHits = make(map[int]string)
	if prev := t.summaries[tf.key]; prev != nil {
		for i, hit := range prev.sinks {
			if hit != "" {
				w.sinkHits[i] = hit
			}
		}
	}
	for i, key := range tf.params {
		if key != nil {
			w.state[key] = paramBit(i)
		}
	}
	w.run(tf.decl)
	s := &taintSummary{
		introduces: w.returns&taintSource != 0,
		propagates: make([]bool, len(tf.params)),
		sinks:      make([]string, len(tf.params)),
	}
	for i := range tf.params {
		if w.returns&paramBit(i) != 0 {
			s.propagates[i] = true
		}
		if hit, ok := w.sinkHits[i]; ok {
			s.sinks[i] = hit
		}
	}
	return s
}

// Check implements Analyzer: the reporting pass over one package, using
// the summaries computed in Prepare.
func (t *Taint) Check(pkg *Package) []Finding {
	if !t.prepared {
		t.Prepare([]*Package{pkg})
	}
	var out []Finding
	for fi := range pkg.Files {
		file := &pkg.Files[fi]
		if file.Test {
			continue
		}
		allowed := allowedLines(pkg.Fset, file.AST, AllowTaintMarker)
		for _, decl := range file.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := t.newWalker(pkg, file)
			w.allowed = allowed
			w.findings = &out
			w.run(fd)
		}
	}
	return out
}

// taintWalker runs the monotone intraprocedural dataflow over one
// function body.
type taintWalker struct {
	t       *Taint
	pkg     *Package
	pt      *pkgTypes // may be nil when the oracle has no entry
	imports map[string]string
	state   map[any]taintVal
	changed bool

	// recording is set on the final pass, once taint has converged.
	recording   bool
	summaryMode bool
	sinkHits    map[int]string
	allowed     map[int]bool
	findings    *[]Finding
	reported    map[token.Pos]bool
	returns     taintVal
}

func (t *Taint) newWalker(pkg *Package, file *File) *taintWalker {
	return &taintWalker{
		t:        t,
		pkg:      pkg,
		pt:       t.oracle.typesOf(pkg),
		imports:  importMap(file.AST),
		state:    make(map[any]taintVal),
		reported: make(map[token.Pos]bool),
	}
}

// run iterates the dataflow to a fixed point, then makes one recording
// pass that checks sinks against the converged state. Taint only
// accumulates over finitely many keys and bits, so the loop ends; a
// pass cap would drop loop-carried flows longer than it.
func (w *taintWalker) run(fd *ast.FuncDecl) {
	for w.changed = true; w.changed; {
		w.changed = false
		w.pass(fd)
	}
	w.recording = true
	w.pass(fd)
}

// pass walks the body once, in source order.
func (w *taintWalker) pass(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assignStmt(n)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					v := w.val(vs.Values[0])
					for _, name := range vs.Names {
						w.taint(w.identKey(name), v)
					}
				} else {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.taint(w.identKey(name), w.val(vs.Values[i]))
						}
					}
				}
			}
		case *ast.RangeStmt:
			v := w.val(n.X)
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					w.taint(w.identKey(id), v)
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				// Naked return: named results carry whatever they hold.
				if fd.Type.Results != nil {
					for _, f := range fd.Type.Results.List {
						for _, name := range f.Names {
							w.returns |= w.state[w.identKey(name)]
						}
					}
				}
				return true
			}
			for _, r := range n.Results {
				w.returns |= w.val(r)
			}
		case *ast.SendStmt:
			if v := w.val(n.Value); v != 0 {
				w.taintRoot(n.Chan, v)
			}
		case *ast.CallExpr:
			// Evaluate every call so statement-position sinks are checked;
			// val dedups reports by position.
			w.val(n)
		}
		return true
	})
}

func (w *taintWalker) assignStmt(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Multi-value: every target inherits the call's taint.
		v := w.val(n.Rhs[0])
		for _, lhs := range n.Lhs {
			w.assignTo(lhs, v)
		}
		return
	}
	// Taint only ever accumulates (assignTo unions), so compound
	// assignments (+=) need no special case.
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			w.assignTo(lhs, w.val(n.Rhs[i]))
		}
	}
}

// assignTo writes taint into an assignment target: identifiers are
// tainted directly; writes through selectors/indexes/derefs taint the
// root object (pkt.Payload = v taints pkt).
func (w *taintWalker) assignTo(lhs ast.Expr, v taintVal) {
	if v == 0 {
		return
	}
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name != "_" {
			w.taint(w.identKey(id), v)
		}
		return
	}
	w.taintRoot(lhs, v)
}

// taintRoot taints the root identifier of a selector/index/deref chain.
func (w *taintWalker) taintRoot(e ast.Expr, v taintVal) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.Ident:
			if x.Name != "_" {
				w.taint(w.identKey(x), v)
			}
			return
		default:
			return
		}
	}
}

func (w *taintWalker) taint(key any, v taintVal) {
	if key == nil || v == 0 {
		return
	}
	if w.state[key]&v != v {
		w.state[key] |= v
		w.changed = true
	}
}

func (w *taintWalker) identKey(id *ast.Ident) any { return identObj(w.pt, id) }

// val computes the taint of an expression, reporting sink hits when
// recording.
func (w *taintWalker) val(e ast.Expr) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		return w.state[w.identKey(e)]
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.ParenExpr:
		return w.val(e.X)
	case *ast.UnaryExpr:
		return w.val(e.X)
	case *ast.StarExpr:
		return w.val(e.X)
	case *ast.TypeAssertExpr:
		return w.val(e.X)
	case *ast.IndexExpr:
		return w.val(e.X)
	case *ast.SliceExpr:
		return w.val(e.X)
	case *ast.SelectorExpr:
		// Field read of a tainted value, or a package-qualified name
		// (package identifiers are never tainted).
		return w.val(e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ,
			token.LSS, token.LEQ, token.GTR, token.GEQ:
			return 0 // booleans don't carry payload bytes
		}
		return w.val(e.X) | w.val(e.Y)
	case *ast.CompositeLit:
		var v taintVal
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v |= w.val(kv.Value)
			} else {
				v |= w.val(elt)
			}
		}
		return v
	case *ast.CallExpr:
		return w.call(e)
	}
	return 0
}

// call classifies and evaluates one call expression.
func (w *taintWalker) call(call *ast.CallExpr) taintVal {
	// Type conversions keep their operand's taint.
	if w.pt != nil {
		if tv, ok := w.pt.info.Types[call.Fun]; ok && tv.IsType() {
			var v taintVal
			for _, a := range call.Args {
				v |= w.val(a)
			}
			return v
		}
	}
	if name, ok := builtinName(w, call.Fun); ok {
		switch name {
		case "append", "min", "max":
			var v taintVal
			for _, a := range call.Args {
				v |= w.val(a)
			}
			return v
		case "copy":
			// copy(dst, src): a tainted source taints the destination.
			if len(call.Args) == 2 {
				if v := w.val(call.Args[1]); v != 0 {
					w.taintRoot(call.Args[0], v)
				}
			}
			return 0
		default:
			return 0 // len, cap, make, new, delete, panic, ...
		}
	}

	c, recvExpr := w.resolve(call)

	// Assemble argument taints; a method receiver is argument 0.
	var argExprs []ast.Expr
	if recvExpr != nil {
		argExprs = append(argExprs, recvExpr)
	}
	argExprs = append(argExprs, call.Args...)
	argVals := make([]taintVal, len(argExprs))
	var union taintVal
	for i, a := range argExprs {
		argVals[i] = w.val(a)
		union |= argVals[i]
	}

	switch {
	case w.t.sanitizers.match(c, w.pkg.ImportPath, w.imports):
		return 0
	case w.t.sources.match(c, w.pkg.ImportPath, w.imports):
		return taintSource
	case w.t.sinks.match(c, w.pkg.ImportPath, w.imports):
		for _, v := range argVals {
			if v != 0 {
				w.hitSinkArg(call, c.String(), "", v)
			}
		}
		return 0
	}

	if s, tf := w.t.lookupSummary(c); s != nil {
		var out taintVal
		if s.introduces {
			out |= taintSource
		}
		for i, v := range argVals {
			if v == 0 {
				continue
			}
			j := i
			if j >= len(s.propagates) && len(s.propagates) > 0 {
				j = len(s.propagates) - 1 // variadic tail
			}
			if j < len(s.propagates) && s.propagates[j] {
				out |= v
			}
			if j < len(s.sinks) && s.sinks[j] != "" {
				w.hitSinkArg(call, s.sinks[j], tf.ref.String(), v)
			}
		}
		return out
	}

	// Unknown callee: conservatively propagate argument taint to the
	// result, and through mutation into pointer arguments and the
	// receiver (h.Write(key) taints h).
	if union != 0 {
		if recvExpr != nil {
			w.taintRoot(recvExpr, union)
		}
		for _, a := range call.Args {
			if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
				w.taintRoot(u.X, union)
			}
		}
	}
	return union
}

// hitSinkArg reports (or records, in summary mode) one tainted value
// reaching a sink.
func (w *taintWalker) hitSinkArg(call *ast.CallExpr, sink, via string, v taintVal) {
	if w.summaryMode {
		for i := 0; i < maxParamBits; i++ {
			if v&paramBit(i) != 0 {
				if _, dup := w.sinkHits[i]; !dup {
					w.sinkHits[i] = sink
				}
			}
		}
		return
	}
	if !w.recording || v&taintSource == 0 || w.findings == nil {
		return
	}
	pos := call.Pos()
	if w.reported[pos] {
		return
	}
	line := w.pkg.Fset.Position(pos).Line
	if w.allowed[line] {
		return
	}
	w.reported[pos] = true
	rule := w.t.Rule
	msg := fmt.Sprintf("%s reaches sink %s", rule.Tainted, sink)
	if via != "" {
		msg += fmt.Sprintf(" via %s", via)
	}
	msg += fmt.Sprintf("; %s (or annotate //%s)", rule.Advice, AllowTaintMarker)
	*w.findings = append(*w.findings, w.pkg.finding(rule.RuleName, pos, "%s", msg))
}

// callee identifies a call target as precisely as the available type
// information allows. recv == "?" marks a method whose receiver type
// could not be resolved.
type callee struct {
	pkg, recv, name string
}

func (c callee) String() string {
	return TaintRef{Pkg: c.pkg, Recv: c.recv, Name: c.name}.String()
}

// builtinName reports whether fun denotes a Go builtin.
func builtinName(w *taintWalker, fun ast.Expr) (string, bool) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if w.pt != nil {
		if obj := w.pt.info.Uses[id]; obj != nil {
			_, isBuiltin := obj.(*types.Builtin)
			return id.Name, isBuiltin
		}
	}
	switch id.Name {
	case "len", "cap", "append", "copy", "make", "new", "delete",
		"clear", "min", "max", "panic", "print", "println", "recover":
		return id.Name, true
	}
	return "", false
}

// resolve identifies the callee and, for method calls, returns the
// receiver expression (so its taint participates as argument 0).
func (w *taintWalker) resolve(call *ast.CallExpr) (callee, ast.Expr) {
	return resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
}

// resolveCall identifies a call's callee using the type oracle with
// syntactic import-name fallbacks, shared by the taint and cryptomisuse
// engines. For method calls the receiver expression is returned too.
func resolveCall(pt *pkgTypes, imports map[string]string, selfPkg string, call *ast.CallExpr) (callee, ast.Expr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if pt != nil {
			if fn, ok := pt.info.Uses[fun].(*types.Func); ok && fn.Pkg() != nil {
				return callee{pkg: fn.Pkg().Path(), name: fun.Name}, nil
			}
		}
		// Unresolved plain call: assume same-package.
		return callee{pkg: selfPkg, name: fun.Name}, nil
	case *ast.SelectorExpr:
		if pt != nil {
			if sel, ok := pt.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				obj := sel.Obj()
				pkgPath := ""
				if obj.Pkg() != nil {
					pkgPath = obj.Pkg().Path()
				}
				return callee{pkg: pkgPath, recv: namedOf(sel.Recv()), name: fun.Sel.Name}, fun.X
			}
			if id, ok := fun.X.(*ast.Ident); ok {
				if pn, ok := pt.info.Uses[id].(*types.PkgName); ok {
					return callee{pkg: pn.Imported().Path(), name: fun.Sel.Name}, nil
				}
			}
		}
		if id, ok := fun.X.(*ast.Ident); ok {
			if path, ok := imports[id.Name]; ok && !isLocalIdent(pt, id) {
				return callee{pkg: path, name: fun.Sel.Name}, nil
			}
		}
		return callee{recv: "?", name: fun.Sel.Name}, fun.X
	case *ast.ParenExpr:
		inner := *call
		inner.Fun = fun.X
		return resolveCall(pt, imports, selfPkg, &inner)
	}
	return callee{}, nil
}

// isLocalIdent reports whether id resolves to a local object (shadowing
// an import name).
func isLocalIdent(pt *pkgTypes, id *ast.Ident) bool {
	if pt == nil {
		return false
	}
	obj := pt.info.Uses[id]
	if obj == nil {
		return false
	}
	_, isPkg := obj.(*types.PkgName)
	return !isPkg
}

// lookupSummary finds the summary for a resolved callee, handling the
// unknown-receiver fallback (unique method name among imported
// packages).
func (t *Taint) lookupSummary(c callee) (*taintSummary, *taintFunc) {
	if c.recv != "?" {
		key := funcKey(c.pkg, c.recv, c.name)
		if s, ok := t.summaries[key]; ok {
			return s, t.funcs[key]
		}
		return nil, nil
	}
	var found string
	for _, key := range t.methodsByName[c.name] {
		if found != "" && found != key {
			return nil, nil // ambiguous: stay conservative
		}
		found = key
	}
	if found == "" {
		return nil, nil
	}
	if s, ok := t.summaries[found]; ok {
		return s, t.funcs[found]
	}
	return nil, nil
}

// refMatcher matches resolved callees against a TaintRef table.
type refMatcher struct {
	funcs   map[[2]string]bool
	methods map[[3]string]bool
	// methodPkgs maps a method name to the packages declaring a matching
	// spec, for the unknown-receiver fallback.
	methodPkgs map[string][]string
}

func newRefMatcher(refs []TaintRef) *refMatcher {
	m := &refMatcher{
		funcs:      make(map[[2]string]bool),
		methods:    make(map[[3]string]bool),
		methodPkgs: make(map[string][]string),
	}
	for _, r := range refs {
		if r.Recv == "" {
			m.funcs[[2]string{r.Pkg, r.Name}] = true
		} else {
			m.methods[[3]string{r.Pkg, r.Recv, r.Name}] = true
			m.methodPkgs[r.Name] = append(m.methodPkgs[r.Name], r.Pkg)
		}
	}
	return m
}

// match reports whether the callee hits a table entry. Unresolved
// receivers match by method name when the calling file imports (or is)
// the declaring package — a deliberate over-approximation, waivable
// with the calling rule's marker.
func (m *refMatcher) match(c callee, selfPkg string, imports map[string]string) bool {
	if c.recv == "" {
		return m.funcs[[2]string{c.pkg, c.name}]
	}
	if c.recv != "?" {
		return m.methods[[3]string{c.pkg, c.recv, c.name}]
	}
	for _, pkg := range m.methodPkgs[c.name] {
		if pkg == selfPkg {
			return true
		}
		for _, imported := range imports {
			if imported == pkg {
				return true
			}
		}
	}
	return false
}

var _ ModuleAnalyzer = (*Taint)(nil)
