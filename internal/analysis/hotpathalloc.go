package analysis

// The //xlf:hotpath annotation contract (DESIGN.md §10): a function whose
// doc comment carries the directive declares itself allocation-free, and
// this rule enforces the declaration with a conservative syntactic lint.
// The per-event and per-packet paths of the simulation kernel and the
// network core — and the disabled-tracer/counter paths under them — live
// or die on staying off the heap; an accidental closure or fmt call in
// one of them silently multiplies per-event cost by an order of
// magnitude. The static lint and the testing.AllocsPerRun guards in the
// annotated packages enforce the same bar from two directions.
//
// The lint flags constructs that usually allocate, in the annotated
// function itself and, through the call graph, in everything it calls:
//
//   - composite literals whose address is taken, and slice/map literals;
//   - make, new and append;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - fmt.* calls (interface boxing plus formatting state);
//   - function literals (closure capture) and go statements;
//   - ranging over a map (no allocation, but nondeterministic order —
//     poison for the determinism contract the hot paths also carry).
//
// Plain value struct literals, calls into other functions and numeric
// conversions are deliberately not flagged: the first two are
// stack-allocatable or the callee's problem, and the guards catch what
// escape analysis disagrees about. A reviewed exception is waived line
// by line with //xlf:allow-hotpath.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathMarker marks a function's doc comment as an allocation-free
// declaration enforced by the hotpathalloc rule.
const HotPathMarker = "xlf:hotpath"

// AllowHotPathMarker waives a hotpathalloc finding on its line (or the
// next) for reviewed, deliberately-bounded allocations. It never waives
// a whole function: in a doc comment it covers nothing.
const AllowHotPathMarker = "xlf:allow-hotpath"

// HotPathAlloc enforces the //xlf:hotpath contract. It is transitive:
// callees of an annotated function must themselves be alloc-free to any
// depth, reported at the hot function's call site with a witness chain.
// Callees that carry their own //xlf:hotpath annotation are skipped —
// their own gate covers them.
type HotPathAlloc struct {
	graph *CallGraph
	// facts maps funcKey → at most one allocation description the
	// function (transitively) performs.
	facts map[string][]string
	// direct marks the fact-bearing functions for chain witnesses.
	direct map[string][]string
	// hot marks //xlf:hotpath-annotated functions.
	hot map[string]bool
}

// NewHotPathAlloc builds the analyzer.
func NewHotPathAlloc() *HotPathAlloc { return &HotPathAlloc{} }

// Name implements Analyzer.
func (h *HotPathAlloc) Name() string { return "hotpathalloc" }

// Doc implements Analyzer.
func (h *HotPathAlloc) Doc() string {
	return "functions annotated //xlf:hotpath must not contain or call into allocating constructs"
}

// Marker implements Analyzer.
func (h *HotPathAlloc) Marker() string { return AllowHotPathMarker }

// followHotPath follows plain and deferred calls: both run in the hot
// frame. Spawned goroutines and closure bodies are excluded — their
// *creation* is already flagged in the frame that creates them — and
// so are fallback-resolved edges and bare references.
func followHotPath(e CallEdge) bool {
	return !e.Fallback && (e.Kind == EdgeCall || e.Kind == EdgeDefer)
}

// Prepare implements ModuleAnalyzer: collect every production
// function's own allocation facts (skipping waived lines) and make them
// transitive over the call graph.
func (h *HotPathAlloc) Prepare(m *Module) {
	h.graph = m.Graph
	h.direct = make(map[string][]string)
	h.hot = make(map[string]bool)
	for _, key := range h.graph.Keys() {
		fn := h.graph.Func(key)
		if fn.File.Test {
			continue
		}
		if isHotPath(fn.Decl) {
			h.hot[key] = true
		}
		w := &hotWalker{pt: m.typesOf(fn.Pkg), imports: importMap(fn.File.AST), report: func(pos token.Pos, desc string) {
			if !m.waived(AllowHotPathMarker, fn.Pkg.Fset.Position(pos)) {
				h.direct[key] = append(h.direct[key], desc+" in "+FuncDisplay(key))
			}
		}}
		w.walk(fn.Decl.Body)
	}
	for key, facts := range h.direct {
		h.direct[key] = dedupSorted(facts)
	}
	h.facts = h.graph.Fixpoint(h.direct, followHotPath, 1)
}

// isHotPath reports whether the declaration's doc comment carries the
// directive. The raw comment list is scanned because //xlf:hotpath is a
// directive comment, which (*CommentGroup).Text() strips. Only the
// directive form — the comment starting with the marker, no space —
// counts, so prose that merely mentions the marker does not annotate.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//"+HotPathMarker) {
			return true
		}
	}
	return false
}

// Check implements Analyzer.
func (h *HotPathAlloc) Check(m *Module, pkg *Package) []Finding {
	var out []Finding
	for fi := range pkg.Files {
		file := &pkg.Files[fi]
		if file.Test {
			continue
		}
		for _, decl := range file.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			w := &hotWalker{pt: m.typesOf(pkg), imports: importMap(file.AST), report: func(pos token.Pos, desc string) {
				out = append(out, pkg.finding("hotpathalloc", pos,
					"hot path %s: %s; hoist it out of the hot path or waive with //%s",
					fd.Name.Name, desc, AllowHotPathMarker))
			}}
			w.walk(fd.Body)
			out = append(out, h.transitive(pkg, fd)...)
		}
	}
	return out
}

// transitive reports calls out of a hot function into callees that
// (transitively) allocate, using the graph summaries from Prepare.
func (h *HotPathAlloc) transitive(pkg *Package, fd *ast.FuncDecl) []Finding {
	fn := h.graph.Func(funcKey(pkg.ImportPath, declRecv(fd), fd.Name.Name))
	if fn == nil || fn.Decl != fd {
		return nil
	}
	var out []Finding
	reported := make(map[token.Pos]bool)
	for _, e := range fn.Edges {
		facts := h.facts[e.Callee]
		if !followHotPath(e) || h.hot[e.Callee] || reported[e.Pos] || len(facts) == 0 {
			continue
		}
		reported[e.Pos] = true
		chain := h.graph.Chain(e.Callee, func(k string) bool { return len(h.direct[k]) > 0 }, followHotPath)
		witness := FuncDisplay(e.Callee)
		if chain != nil {
			witness = displayChain(chain)
		}
		out = append(out, pkg.finding("hotpathalloc", e.Pos,
			"hot path %s: call into %s allocates (%s; via %s); hoist it out of the hot path or waive with //%s",
			fd.Name.Name, FuncDisplay(e.Callee), facts[0], witness, AllowHotPathMarker))
	}
	return out
}

// hotWalker lints one function body, passing each allocating construct
// to report: a finding in an annotated function, a fact otherwise.
type hotWalker struct {
	pt      *pkgTypes
	imports map[string]string
	report  func(pos token.Pos, desc string)
}

// walk lints the body without descending into function literals: a
// literal's *creation* is the hot-path cost; its body runs elsewhere.
func (w *hotWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.report(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.GoStmt:
			w.report(n.Pos(), "go statement allocates a goroutine stack")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, isLit := n.X.(*ast.CompositeLit); isLit {
					w.report(n.Pos(), "taking the address of a composite literal heap-allocates it")
				}
			}
		case *ast.CompositeLit:
			switch t := n.Type.(type) {
			case *ast.ArrayType:
				if t.Len == nil {
					w.report(n.Pos(), "slice literal allocates its backing array")
				}
			case *ast.MapType:
				w.report(n.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && w.isString(n) {
				w.report(n.Pos(), "string concatenation allocates")
			}
		case *ast.RangeStmt:
			if isMap(w.pt, n.X) {
				w.report(n.Pos(), "map iteration order is nondeterministic on a hot path")
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// call classifies one call expression: builtins, fmt, and allocating
// type conversions.
func (w *hotWalker) call(call *ast.CallExpr) {
	if name, ok := builtinName(w.pt, call.Fun); ok {
		switch name {
		case "make", "new":
			w.report(call.Pos(), name+" allocates")
		case "append":
			w.report(call.Pos(), "append may grow its backing array")
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && !isLocalIdent(w.pt, id) && w.imports[id.Name] == "fmt" {
			w.report(call.Pos(), "fmt."+sel.Sel.Name+" boxes its arguments and allocates")
			return
		}
	}
	w.conversion(call)
}

// conversion flags string<->byte/rune-slice conversions, which copy.
// A conversion whose operand is already a string (string(addr[4:])) is
// free and stays quiet.
func (w *hotWalker) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := w.pt.info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	target := tv.Type.Underlying()
	opTV, ok := w.pt.info.Types[call.Args[0]]
	if !ok || opTV.Type == nil {
		return
	}
	operand := opTV.Type.Underlying()
	if isStringType(target) && !isStringType(operand) && !isUntypedConst(opTV) {
		w.report(call.Pos(), "conversion to string allocates a copy")
		return
	}
	if isByteOrRuneSlice(target) && isStringType(operand) {
		w.report(call.Pos(), "conversion from string to a byte/rune slice allocates a copy")
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedConst(tv types.TypeAndValue) bool { return tv.Value != nil }

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// isString reports whether the expression's type is string-kinded (true
// when the oracle has no answer but either operand is a string literal).
func (w *hotWalker) isString(e *ast.BinaryExpr) bool {
	if tv, ok := w.pt.info.Types[e]; ok && tv.Type != nil {
		return isStringType(tv.Type.Underlying())
	}
	for _, op := range []ast.Expr{e.X, e.Y} {
		if lit, ok := op.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			return true
		}
	}
	return false
}
