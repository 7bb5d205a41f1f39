package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file gives the module model best-effort type information without
// leaving the standard library or the loaded source set. Packages are
// type-checked in intra-module dependency order; imports that resolve to
// another loaded package use its real checked types, while everything
// else (the standard library, unparsed third parties) is stubbed with an
// empty package. Type errors caused by the stubs are expected and
// ignored — what survives is exactly what the dataflow rules need:
// ident→object resolution for local variables and full method/receiver
// resolution for every call into a loaded package.

// pkgTypes is the tolerant type-check result for one Package.
type pkgTypes struct {
	tpkg *types.Package
	info *types.Info
}

// typeOracle is the tolerant type-check of a loaded package set. The
// module model (NewModule) owns the only one, so a run checks the module
// once and every rule reads the same objects.
type typeOracle struct {
	byPkg map[*Package]*pkgTypes
}

// typesOf returns the checked types for pkg, or nil when pkg was not part
// of the checked set.
func (o *typeOracle) typesOf(pkg *Package) *pkgTypes {
	return o.byPkg[pkg]
}

// stubImporter resolves loaded packages to their checked types and
// everything else to an empty stub, so type-checking never needs compiled
// export data or network access.
type stubImporter struct {
	loaded map[string]*pkgTypes
	stubs  map[string]*types.Package
}

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if pt, ok := s.loaded[path]; ok && pt.tpkg != nil {
		return pt.tpkg, nil
	}
	if stub, ok := s.stubs[path]; ok {
		return stub, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	stub := types.NewPackage(path, name)
	stub.MarkComplete()
	s.stubs[path] = stub
	return stub, nil
}

// newTypeOracle type-checks every package once, in dependency order.
func newTypeOracle(pkgs []*Package) *typeOracle {
	o := &typeOracle{byPkg: make(map[*Package]*pkgTypes, len(pkgs))}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	imp := &stubImporter{
		loaded: make(map[string]*pkgTypes, len(pkgs)),
		stubs:  make(map[string]*types.Package),
	}

	// Topological order over intra-module imports (cycles cannot happen in
	// compilable Go; if the sources are broken we still terminate because
	// visited packages are marked before recursing). The check ignores
	// external test packages, so their imports (xlf_test importing
	// internal/exp, which imports xlf) must not order an importer first.
	var order []*Package
	visited := make(map[*Package]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, f := range p.Files {
			if strings.HasSuffix(f.AST.Name.Name, "_test") {
				continue
			}
			for _, spec := range f.AST.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if dep, ok := byPath[path]; ok && dep != p {
					visit(dep)
				}
			}
		}
		order = append(order, p)
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		visit(p)
	}

	for _, p := range order {
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		conf := types.Config{
			Importer:                 imp,
			Error:                    func(error) {}, // stub-induced errors are expected
			FakeImportC:              true,
			DisableUnusedImportCheck: true,
		}
		files := make([]*ast.File, len(p.Files))
		for i, f := range p.Files {
			files[i] = f.AST
		}
		// Check never returns a nil package; errors are collected via the
		// Error callback and deliberately dropped.
		tpkg, _ := conf.Check(p.ImportPath, p.Fset, files, info)
		pt := &pkgTypes{tpkg: tpkg, info: info}
		o.byPkg[p] = pt
		imp.loaded[p.ImportPath] = pt
	}
	return o
}

// namedOf unwraps pointers and returns the named type's object name, or
// "" when t is not (a pointer to) a named type.
func namedOf(t types.Type) string {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isMap reports whether e has map type (a map type literal when the
// check recorded no type for e).
func isMap(pt *pkgTypes, e ast.Expr) bool {
	if tv, ok := pt.info.Types[e]; ok && tv.Type != nil {
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	_, isMapType := e.(*ast.MapType)
	return isMapType
}

// builtinName reports whether fun denotes a Go builtin, and which. An
// identifier the check left unresolved counts when it spells one.
func builtinName(pt *pkgTypes, fun ast.Expr) (string, bool) {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if obj := pt.info.Uses[id]; obj != nil {
		_, isBuiltin := obj.(*types.Builtin)
		return id.Name, isBuiltin
	}
	switch id.Name {
	case "len", "cap", "append", "copy", "make", "new", "delete",
		"clear", "min", "max", "panic", "print", "println", "recover":
		return id.Name, true
	}
	return "", false
}
