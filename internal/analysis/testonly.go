package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AllowTestOnlyMarker waives the testonly rule for an exported function
// whose user the type-check cannot see (bench/_perf, or a standard-library
// interface the stub importer hides).
const AllowTestOnlyMarker = "xlf:allow-testonly"

// TestOnly enforces that the module exports nothing only its tests use:
// every exported function or method in a non-main package needs a use,
// resolved through types.Info.Uses, in some non-test file of the module,
// so a production method that shares its name does not hide it.
//
// A call through an interface resolves to the interface's method, so a
// method also counts as used when its receiver (T or *T) satisfies a
// module interface that declares it. Error, String and Unwrap always
// count: the stub importer hides error, fmt.Stringer and errors. Exported
// methods on unexported types are skipped: only an interface reaches them.
type TestOnly struct {
	used   map[types.Object]bool
	ifaces []*types.Interface
}

// NewTestOnly builds the analyzer.
func NewTestOnly() *TestOnly { return &TestOnly{} }

// Name implements Analyzer.
func (t *TestOnly) Name() string { return "testonly" }

// Doc implements Analyzer.
func (t *TestOnly) Doc() string {
	return "every exported function or method must have a use outside test files"
}

// Marker implements Analyzer.
func (t *TestOnly) Marker() string { return AllowTestOnlyMarker }

// Prepare implements ModuleAnalyzer: it collects every function a
// non-test file uses and every interface a non-test file declares.
func (t *TestOnly) Prepare(m *Module) {
	t.used, t.ifaces = make(map[types.Object]bool), nil
	for _, pkg := range m.Pkgs {
		pt := m.typesOf(pkg)
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := pt.info.Uses[id].(*types.Func); ok {
						t.used[fn.Origin()] = true
					}
				}
				return true
			})
		}
		scope := pt.tpkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			named, isNamed := tn.Type().(*types.Named)
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && isNamed && named.TypeParams().Len() == 0 {
				t.ifaces = append(t.ifaces, iface)
			}
		}
	}
}

// Check implements Analyzer.
func (t *TestOnly) Check(m *Module, pkg *Package) []Finding {
	pt := m.typesOf(pkg)
	if pt.tpkg.Name() == "main" {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if f.Test || !ok || !fd.Name.IsExported() {
				continue
			}
			if fn, ok := pt.info.Defs[fd.Name].(*types.Func); !ok || t.used[fn] || t.reachable(fn) {
				continue
			}
			recv := ""
			if fd.Recv != nil {
				recv = recvTypeName(fd.Recv.List[0].Type)
			}
			out = append(out, pkg.finding(t.Name(), fd.Name.Pos(),
				"%s is exported but no non-test file uses it; delete it, or waive a keep with //%s and its reason",
				FuncDisplay(funcKey(pkg.ImportPath, recv, fd.Name.Name)), AllowTestOnlyMarker))
		}
	}
	return out
}

// reachable reports whether method fn counts as used without a direct
// use: a name the stub importer hides, an unexported receiver, or a
// module interface that declares it and that its receiver satisfies.
func (t *TestOnly) reachable(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if name := fn.Name(); name == "Error" || name == "String" || name == "Unwrap" {
		return true
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || !named.Obj().Exported() {
		return true
	}
	if named.TypeParams().Len() > 0 {
		return false // Implements is unspecified for uninstantiated types
	}
	for _, iface := range t.ifaces {
		if m, _, _ := types.LookupFieldOrMethod(iface, false, nil, fn.Name()); m != nil &&
			(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
}
