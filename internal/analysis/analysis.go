// Package analysis implements xlf-vet: the repo's own cross-layer static
// analysis. XLF's thesis is that security properties must be enforced
// across layers, not inside any single one; this package compiles the
// corresponding architectural rules — the layer import DAG, the
// determinism contract of the simulator, lock balance and error-handling
// discipline in security-critical packages — into checkers that run over
// the parsed source (go/parser, go/ast and go/types only, no external
// dependencies). Rules go vet already runs (copylocks, unreachable) are
// not duplicated here.
//
// Each Analyzer inspects one parsed Package at a time and reports
// Findings; cmd/xlf-vet loads the module, runs every analyzer and exits
// non-zero when anything is found.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Finding is one diagnostic, printed as "file:line: [rule] message".
type Finding struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col,omitempty"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
	// Fix, when non-nil, is a mechanical edit that resolves the finding;
	// xlf-vet -fix applies it.
	Fix *SuggestedFix `json:"fix,omitempty"`
}

// SuggestedFix is one byte-range replacement within the finding's file.
// Offsets index the file content as parsed; AddImport names an import
// path the replacement text requires.
type SuggestedFix struct {
	Start     int    `json:"start"`
	End       int    `json:"end"`
	NewText   string `json:"new_text"`
	AddImport string `json:"add_import,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Message)
}

// File is one parsed source file within a Package.
type File struct {
	Name string // path as given to the parser
	Test bool   // _test.go file
	AST  *ast.File
}

// Package is one parsed directory of Go source. Test files are included
// (lock balance applies to them too); analyzers that only reason about
// production code skip File.Test entries.
type Package struct {
	// ImportPath is the package's import path ("xlf/internal/sim").
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []File
}

// Analyzer checks one package.
type Analyzer interface {
	// Name is the rule name used in diagnostics and -disable flags.
	Name() string
	Check(pkg *Package) []Finding
}

// ModuleAnalyzer is an Analyzer that needs the whole module before
// per-package Check calls — the taint engine computes cross-package
// function summaries this way. Prepare is idempotent: the first call
// wins, so a driver can prepare on the full module and then Check a
// filtered subset without losing cross-package context.
type ModuleAnalyzer interface {
	Analyzer
	Prepare(pkgs []*Package)
}

// Documented is optionally implemented by analyzers that carry a one-line
// rule description (surfaced as SARIF rule metadata).
type Documented interface {
	Doc() string
}

// Prepare runs every ModuleAnalyzer's Prepare step over the package set.
func Prepare(pkgs []*Package, analyzers []Analyzer) {
	for _, a := range analyzers {
		if m, ok := a.(ModuleAnalyzer); ok {
			m.Prepare(pkgs)
		}
	}
}

// finding builds a Finding at pos.
func (p *Package) finding(rule string, pos token.Pos, format string, args ...any) Finding {
	position := p.Fset.Position(pos)
	return Finding{
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by file, line, rule and message. Module-scoped
// analyzers are prepared over the same package set first (a no-op when
// the driver already prepared them on the full module).
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	return RunParallel(pkgs, analyzers, 1)
}

// RunParallel is Run with the per-package Check calls fanned out over a
// worker pool. Analyzer state is frozen by Prepare before the fan-out
// (the oracle and taint summaries become read-only), so Check calls on
// distinct packages are safe concurrently. The output is sorted with
// SortFindings and therefore byte-identical at any worker count.
func RunParallel(pkgs []*Package, analyzers []Analyzer, workers int) []Finding {
	Prepare(pkgs, analyzers)
	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	results := make([][]Finding, len(pkgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for _, a := range analyzers {
					results[i] = append(results[i], a.Check(pkgs[i])...)
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

// SortFindings orders findings by file, line, column, rule and message —
// a total order, so concurrent runs always print identically even when
// several rule families fire on the same line.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Message < out[j].Message
	})
}

// ModulePath reads the module path from root/go.mod.
func ModulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// LoadModule parses every package under the module root, skipping
// testdata, vendor and hidden directories. Import paths are derived from
// the module path in go.mod.
func LoadModule(root string) ([]*Package, error) {
	module, err := ModulePath(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		pkg, err := LoadDir(path, importPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// LoadDir parses the .go files directly inside dir as one Package with the
// given import path. It returns (nil, nil) when dir holds no Go files.
func LoadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{ImportPath: importPath, Dir: dir, Fset: token.NewFileSet()}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(pkg.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, File{
			Name: path,
			Test: strings.HasSuffix(e.Name(), "_test.go"),
			AST:  f,
		})
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// importName returns the identifier under which file imports path, and
// whether it imports it at all. An unnamed import resolves to the final
// path element (correct for the stdlib packages the analyzers care
// about).
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return "", false
			}
			return imp.Name.Name, true
		}
		return p[strings.LastIndex(p, "/")+1:], true
	}
	return "", false
}

// importMap maps every local import name of f to its import path
// (skipping blank and dot imports).
func importMap(f *ast.File) map[string]string {
	imports := make(map[string]string)
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name != "_" && name != "." {
			imports[name] = path
		}
	}
	return imports
}

// allowedLines collects source lines covered by comments containing
// marker (e.g. "xlf:allow-wallclock"): the comment's own lines plus the
// line immediately after, so both end-of-line and line-above annotations
// work. A marker in a function's doc comment allows the whole function.
func allowedLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	allowed := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.Contains(c.Text, marker) {
				continue
			}
			start := fset.Position(c.Pos()).Line
			end := fset.Position(c.End()).Line
			for l := start; l <= end+1; l++ {
				allowed[l] = true
			}
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		// Scan the raw comment list: //xlf:... is a directive, which
		// (*CommentGroup).Text() strips.
		marked := false
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, marker) {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		start := fset.Position(fd.Pos()).Line
		end := fset.Position(fd.End()).Line
		for l := start; l <= end; l++ {
			allowed[l] = true
		}
	}
	return allowed
}
