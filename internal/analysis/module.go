package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Module is the module model every rule reads, built once per run: the
// loaded packages, their single tolerant type-check, the call graph with
// its function index, and a per-file index of //xlf:allow-* waivers.
// It is read-only once built.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph

	types   *typeOracle
	waivers map[string][]waiver // by file name
}

// waiver is one //xlf:allow-<rule> directive and the lines it covers.
type waiver struct {
	marker   string
	from, to int
}

// NewModule type-checks pkgs, builds their call graph and indexes their
// waivers. Rules report on any subset of pkgs (Module.Run) but always
// reason over all of them, so cross-package flows stay visible.
func NewModule(pkgs []*Package) *Module {
	types := newTypeOracle(pkgs)
	m := &Module{
		Pkgs:    pkgs,
		Graph:   newCallGraph(pkgs, types),
		types:   types,
		waivers: make(map[string][]waiver),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			m.waivers[f.Name] = fileWaivers(pkg.Fset, f.AST)
		}
	}
	return m
}

// typesOf returns pkg's checked types (never nil for a module package).
func (m *Module) typesOf(pkg *Package) *pkgTypes { return m.types.typesOf(pkg) }

// fileWaivers parses the waiver directives of one file. A directive is a
// comment that starts with //xlf:allow-<rule>; prose that merely mentions
// a marker waives nothing. It covers its own line and the next, or, in a
// function's doc comment, the whole function — except //xlf:allow-hotpath,
// which is surgical: in a doc comment it would silently negate the
// //xlf:hotpath annotation beside it, so there it covers nothing.
func fileWaivers(fset *token.FileSet, f *ast.File) []waiver {
	docOf := make(map[*ast.Comment]*ast.FuncDecl)
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
			for _, c := range fd.Doc.List {
				docOf[c] = fd
			}
		}
	}
	var out []waiver
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			marker, ok := strings.CutPrefix(c.Text, "//")
			if !ok || !strings.HasPrefix(marker, "xlf:allow-") {
				continue
			}
			marker, _, _ = strings.Cut(marker, " ")
			w := waiver{
				marker: strings.TrimSuffix(marker, ":"),
				from:   fset.Position(c.Pos()).Line,
				to:     fset.Position(c.End()).Line + 1,
			}
			if fd := docOf[c]; fd != nil {
				if w.marker == AllowHotPathMarker {
					continue
				}
				w.to = max(w.to, fset.Position(fd.End()).Line)
			}
			out = append(out, w)
		}
	}
	return out
}

// waived reports whether a marker directive covers pos.
func (m *Module) waived(marker string, pos token.Position) bool {
	for _, w := range m.waivers[pos.Filename] {
		if w.marker == marker && w.from <= pos.Line && pos.Line <= w.to {
			return true
		}
	}
	return false
}

// Run applies the analyzers to pkgs, which must belong to the module:
// module-wide facts are prepared first, then each package is checked,
// and findings a directive waives are dropped. The output is sorted with
// SortFindings.
func (m *Module) Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	for _, a := range analyzers {
		if p, ok := a.(ModuleAnalyzer); ok {
			p.Prepare(m)
		}
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			for _, f := range a.Check(m, pkg) {
				if !m.waived(a.Marker(), f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
	SortFindings(out)
	return out
}
