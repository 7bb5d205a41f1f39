package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"sync"
)

// Module is the module model every rule reads, built once per run: the
// loaded packages, their single tolerant type-check, the call graph with
// its function index, and a per-file index of //xlf:allow-* waivers.
// It is read-only once built, so Check calls share it across workers.
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
// module-wide facts are prepared first, then the per-package Check calls
// fan out over a worker pool, and findings a directive waives are
// dropped. The output is sorted with SortFindings and therefore
// byte-identical at any worker count.
func (m *Module) Run(pkgs []*Package, analyzers []Analyzer, workers int) []Finding {
	for _, a := range analyzers {
		if p, ok := a.(ModuleAnalyzer); ok {
			p.Prepare(m)
		}
	}
	workers = max(1, min(workers, len(pkgs)))
	results := make([][]Finding, len(pkgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for _, a := range analyzers {
					for _, f := range a.Check(m, pkgs[i]) {
						if !m.waived(a.Marker(), f.Pos) {
							results[i] = append(results[i], f)
						}
					}
				}
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var out []Finding
	for _, r := range results {
		out = append(out, r...)
	}
	SortFindings(out)
	return out
}

// Run builds the model of pkgs and applies every analyzer to every
// package.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	return NewModule(pkgs).Run(pkgs, analyzers, 1)
}
