package analysis

import (
	"strings"
)

// LayerCheck enforces the XLF import DAG: every package in the module must
// appear in the layer table, and may import only the intra-module packages
// the table grants it. The table is data, not convention — an edge the
// architecture does not declare is a build-gate failure, which is the
// "policy as physical law" posture applied to the codebase itself.
//
// Only non-test files are checked: test-only imports (a package pulling in
// the testbed to exercise itself) do not couple the production layers.
type LayerCheck struct {
	// Module is the module path ("xlf"); imports outside it are ignored.
	Module string
	// Allowed maps a package's module-relative path to the complete set of
	// module-relative import paths it may use. The module root package is
	// written ".". A value of "*" grants every intra-module import.
	Allowed map[string][]string
}

// NewLayerCheck builds the analyzer from one allowed-edge table.
func NewLayerCheck(module string, allowed map[string][]string) *LayerCheck {
	return &LayerCheck{Module: module, Allowed: allowed}
}

// Name implements Analyzer.
func (l *LayerCheck) Name() string { return "layercheck" }

// Doc implements Analyzer.
func (l *LayerCheck) Doc() string {
	return "package imports must follow the XLF layer DAG in DESIGN.md"
}

// Marker implements Analyzer: a layer edge is changed in the table, never
// waived in place.
func (l *LayerCheck) Marker() string { return "" }

// rel maps an import path inside the module to its table key.
func (l *LayerCheck) rel(importPath string) (string, bool) {
	if importPath == l.Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(importPath, l.Module+"/"); ok {
		return rest, true
	}
	return "", false
}

// Check implements Analyzer.
func (l *LayerCheck) Check(_ *Module, pkg *Package) []Finding {
	self, ok := l.rel(pkg.ImportPath)
	if !ok {
		return nil
	}
	granted, declared := l.Allowed[self]
	var out []Finding
	if !declared {
		out = append(out, pkg.finding(l.Name(), pkg.Files[0].AST.Package,
			"package %s is not declared in the layer table; add it to the architecture DAG before importing anything", pkg.ImportPath))
		return out
	}
	allowAll := false
	allowed := make(map[string]bool, len(granted))
	for _, g := range granted {
		if g == "*" {
			allowAll = true
		}
		allowed[g] = true
	}
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, imp := range f.AST.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			target, ok := l.rel(path)
			if !ok || allowAll || allowed[target] {
				continue
			}
			out = append(out, pkg.finding(l.Name(), imp.Pos(),
				"layer violation: %s may not import %s (edge not in the architecture DAG)", self, target))
		}
	}
	return out
}
