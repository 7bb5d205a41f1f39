// Package analysis implements xlf-vet: the repo's own cross-layer static
// analysis. XLF's thesis is that security properties must be enforced
// across layers, not inside any single one; this package compiles the
// corresponding architectural rules — the layer import DAG, the
// determinism contract of the simulator, error discipline and
// lightweight-crypto hygiene in security-critical packages, sealed
// device payloads, unlogged tokens and no test-only exported API — into
// checkers that run over the parsed source (go/parser, go/ast and
// go/types only, no external dependencies). Rules go vet already runs
// (copylocks, unreachable) are not duplicated here.
//
// cmd/xlf-vet loads the module, builds its model once (NewModule: one
// tolerant type-check, one call graph, one waiver index), runs every
// Analyzer over it and exits non-zero when anything is found.
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
)

// Finding is one diagnostic, printed as "file:line: [rule] message".
type Finding struct {
	Pos     token.Position
	File    string
	Line    int
	Col     int
	Rule    string
	Message string
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

// Package is one parsed directory of Go source. Test files are included,
// so the type-check and the call graph see them; every analyzer skips
// File.Test entries when it reports.
type Package struct {
	// ImportPath is the package's import path ("xlf/internal/sim").
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []File
}

// Analyzer is one rule. Check reads the shared module model — types,
// call graph — and reports the rule's findings in one package; Module.Run
// drops those a //xlf:allow-<Marker> directive waives.
type Analyzer interface {
	// Name is the rule name used in diagnostics and SARIF.
	Name() string
	// Doc is the one-line rule description (SARIF rule metadata).
	Doc() string
	// Marker is the directive that waives the rule's findings
	// ("xlf:allow-droperr"), or "" when the rule has none.
	Marker() string
	Check(m *Module, pkg *Package) []Finding
}

// ModuleAnalyzer is an Analyzer that derives module-wide facts (call
// graph summaries) before any Check. Module.Run calls Prepare once per
// run, before checking any package; Check then only reads them.
type ModuleAnalyzer interface {
	Analyzer
	Prepare(m *Module)
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

// SortFindings orders findings by file, line, column, rule and message —
// a total order, so output never depends on the order rules ran in, even
// when several rules fire on the same line.
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
