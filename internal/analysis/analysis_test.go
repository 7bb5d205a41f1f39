package analysis

import (
	"fmt"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fixtureModule is the module path fixture packages pretend to live in.
const fixtureModule = "example.com/m"

// fixturePackages loads every package under testdata/<rule>, mapping
// directory structure to import paths under fixtureModule.
func fixturePackages(t *testing.T, rule string) []*Package {
	t.Helper()
	root := filepath.Join("testdata", rule)
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := fixtureModule
		if rel != "." {
			importPath = fixtureModule + "/" + filepath.ToSlash(rel)
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
		t.Fatalf("loading fixture %s: %v", rule, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s holds no packages", rule)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// checkFixture runs the analyzers over a fixture tree and matches
// findings 1:1 against the `// want "regexp"` expectations in the
// sources. It returns the module model the analyzers read.
func checkFixture(t *testing.T, rule string, ans ...Analyzer) *Module {
	t.Helper()
	pkgs := fixturePackages(t, rule)
	m := NewModule(pkgs)
	findings := m.Run(pkgs, ans)

	type key struct {
		file string
		line int
	}
	want := make(map[key]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			data, err := os.ReadFile(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRe.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.Name, i+1, m[1], err)
				}
				want[key{f.Name, i + 1}] = re
			}
		}
	}
	if len(want) == 0 {
		t.Fatalf("fixture %s declares no expectations", rule)
	}

	matched := make(map[key]bool)
	for _, fd := range findings {
		k := key{fd.File, fd.Line}
		re, ok := want[k]
		if !ok {
			t.Errorf("unexpected finding: %s", fd)
			continue
		}
		text := fmt.Sprintf("[%s] %s", fd.Rule, fd.Message)
		if !re.MatchString(text) {
			t.Errorf("%s:%d: finding %q does not match want %q", k.file, k.line, text, re)
		}
		matched[k] = true
	}
	for k, re := range want {
		if !matched[k] {
			t.Errorf("%s:%d: expected a finding matching %q, got none", k.file, k.line, re)
		}
	}
	return m
}

func TestLayerCheckFixture(t *testing.T) {
	checkFixture(t, "layercheck", NewLayerCheck(fixtureModule, map[string][]string{
		"internal/device": {"internal/lwc"},
		"internal/lwc":    {},
	}))
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", NewDeterminism([]string{fixtureModule + "/internal/sim"}))
}

func TestErrDropFixture(t *testing.T) {
	checkFixture(t, "errdrop", NewErrDrop([]string{fixtureModule + "/internal/xauth"}))
}

// TestTestOnlyFixture covers a method only a test calls, one that shares
// its name with a used method of another type, one reached only through
// a module interface, String, a method on an unexported type, a main
// package and a waived keep.
func TestTestOnlyFixture(t *testing.T) {
	checkFixture(t, "testonly", NewTestOnly())
}

// fixtureTaintRule rebases a real taint rule's intra-module refs onto the
// fixture module, so the fixture exercises the production tables.
func fixtureTaintRule(r TaintRule) TaintRule {
	rebase := func(refs []TaintRef) []TaintRef {
		out := make([]TaintRef, len(refs))
		for i, ref := range refs {
			if rest, ok := strings.CutPrefix(ref.Pkg, XLFModule+"/"); ok {
				ref.Pkg = fixtureModule + "/" + rest
			}
			out[i] = ref
		}
		return out
	}
	r.Sources = rebase(r.Sources)
	r.Sinks = rebase(r.Sinks)
	r.Sanitizers = rebase(r.Sanitizers)
	return r
}

// TestTaintFixture runs both dataflow rules (sharing one module model)
// over the seeded flow shapes: direct leak, sealed path, interprocedural
// in both directions, field writes, and waivers.
func TestTaintFixture(t *testing.T) {
	suite := NewTaintSuite(fixtureTaintRule(XLFPlaintextEscape), fixtureTaintRule(XLFSecretLeak))
	checkFixture(t, "taint", suite...)
}

// TestFindingString pins the diagnostic format the CI gate greps for.
func TestFindingString(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 7, Rule: "layercheck", Message: "boom"}
	if got, wantStr := f.String(), "a/b.go:7: [layercheck] boom"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}

// TestLayerTableMirrorsModule loads the real repository and asserts the
// architecture table is complete and violation-free — the layer DAG as a
// unit test, independent of the cmd/xlf-vet driver.
func TestLayerTableMirrorsModule(t *testing.T) {
	pkgs, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range NewModule(pkgs).Run(pkgs, []Analyzer{NewLayerCheck(XLFModule, XLFLayerTable)}) {
		t.Error(f)
	}
}

// TestRepoCleanUnderAllRules is the repo-tip gate: every analyzer, zero
// findings. Sanctioned exceptions carry an inline //xlf:allow-* marker
// where they happen; there is no global waiver list.
func TestRepoCleanUnderAllRules(t *testing.T) {
	pkgs, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range NewModule(pkgs).Run(pkgs, XLFAnalyzers()) {
		t.Error(f)
	}
}

// waiverRules maps each //xlf:allow-* marker to the rules it waives.
var waiverRules = map[string][]string{
	AllowDropErrMarker:   {"errdrop"},
	AllowHotPathMarker:   {"hotpathalloc"},
	AllowMapOrderMarker:  {"maporder"},
	AllowTaintMarker:     {"plaintextescape", "secretleak"},
	AllowTestOnlyMarker:  {"testonly"},
	AllowWallclockMarker: {"determinism"},
	CryptoAllowMarker:    {"cryptomisuse"},
}

// TestEveryWaiverSuppressesAFinding keeps the inline waivers from
// rotting: with every //xlf:allow-* comment in the module blanked, each
// marker's scope must hold a finding of a rule it waives. The scope is
// the marker's own line, the next line, or the function whose doc
// comment carries it — plus, for a waiver at the origin of an
// interprocedural fact, any finding whose witness names the function
// holding the marker.
func TestEveryWaiverSuppressesAFinding(t *testing.T) {
	pkgs, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	type waiver struct {
		file       string
		from, to   int            // scope, inclusive line range
		via        *regexp.Regexp // the holding function in a witness
		marker     string
		suppressed bool
	}
	var waivers []*waiver
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var funcs []*ast.FuncDecl
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					funcs = append(funcs, fd)
				}
			}
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, "xlf:allow-") {
						continue
					}
					// Markers are directives; prose that merely mentions
					// one (as this package's docs do) is blanked too, so
					// it cannot hide a finding, but is not checked.
					marker, isDirective := strings.CutPrefix(c.Text, "//")
					marker, _, _ = strings.Cut(marker, " ")
					marker = strings.TrimSuffix(marker, ":")
					c.Text = "//"
					if !isDirective || !strings.HasPrefix(marker, "xlf:allow-") {
						continue
					}
					if waiverRules[marker] == nil {
						t.Errorf("%s: unknown waiver marker %q", pkg.Fset.Position(c.Pos()), marker)
						continue
					}
					line := pkg.Fset.Position(c.Pos()).Line
					w := &waiver{file: f.Name, from: line, to: line + 1, marker: marker}
					for _, fd := range funcs {
						start, end := pkg.Fset.Position(fd.Pos()).Line, pkg.Fset.Position(fd.End()).Line
						if fd.Doc != nil && fd.Doc.Pos() <= c.Pos() && c.Pos() < fd.Doc.End() {
							w.to = end
						} else if line < start || line > end {
							continue
						}
						recv := ""
						if fd.Recv != nil && len(fd.Recv.List) > 0 {
							recv = recvTypeName(fd.Recv.List[0].Type)
						}
						w.via = regexp.MustCompile(regexp.QuoteMeta(FuncDisplay(funcKey(pkg.ImportPath, recv, fd.Name.Name))) + `\b`)
					}
					waivers = append(waivers, w)
				}
			}
		}
	}
	if len(waivers) == 0 {
		t.Fatal("no //xlf:allow-* waivers found in the module")
	}
	for _, f := range NewModule(pkgs).Run(pkgs, XLFAnalyzers()) {
		for _, w := range waivers {
			inScope := f.File == w.file && w.from <= f.Line && f.Line <= w.to
			if (inScope || w.via != nil && w.via.MatchString(f.Message)) && slices.Contains(waiverRules[w.marker], f.Rule) {
				w.suppressed = true
			}
		}
	}
	for _, w := range waivers {
		if !w.suppressed {
			t.Errorf("%s:%d: stale //%s waiver: no finding in its scope once it is removed", w.file, w.from, w.marker)
		}
	}
	t.Logf("%d inline waivers checked", len(waivers))
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
