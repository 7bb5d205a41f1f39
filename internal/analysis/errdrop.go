package analysis

import "go/ast"

// AllowDropErrMarker waives the errdrop rule for a call whose error is
// deliberately irrelevant (documented fire-and-forget).
const AllowDropErrMarker = "xlf:allow-droperr"

// ErrDrop flags discarded error returns inside security-critical
// packages: a call used as a bare statement, or assigned entirely to
// blanks (_ = f()), when the callee is known to return an error. Dropping
// an error from a crypto, auth or DNS-privacy path silently converts a
// security failure into success, so in those packages every error must be
// inspected or explicitly waived with //xlf:allow-droperr.
//
// Without type information, "known to return an error" means: declared in
// the same package (functions and methods, matched by name) — which is
// exactly where the security-critical logic lives. Test files are
// exempt; tests routinely ignore errors on the failure paths they
// provoke.
type ErrDrop struct {
	// Packages lists the import paths (exact, or "prefix/..." patterns)
	// under the rule.
	Packages []string
}

// NewErrDrop builds the analyzer for the given package set.
func NewErrDrop(packages []string) *ErrDrop {
	return &ErrDrop{Packages: packages}
}

// Name implements Analyzer.
func (e *ErrDrop) Name() string { return "errdrop" }

// Doc implements Analyzer.
func (e *ErrDrop) Doc() string {
	return "security-critical packages must not discard error results"
}

// Marker implements Analyzer.
func (e *ErrDrop) Marker() string { return AllowDropErrMarker }

// returnsError reports whether the function type's results include an
// identifier spelled "error".
func returnsError(ft *ast.FuncType) bool {
	if ft.Results == nil {
		return false
	}
	for _, field := range ft.Results.List {
		if id, ok := field.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// errFuncs collects the names of package-level functions and methods
// (including those declared in test files — production files may not call
// them, but the map is a superset) that return an error.
func errFuncs(pkg *Package) (funcs, methods map[string]bool) {
	funcs = make(map[string]bool)
	methods = make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !returnsError(fd.Type) {
				continue
			}
			if fd.Recv != nil {
				methods[fd.Name.Name] = true
			} else {
				funcs[fd.Name.Name] = true
			}
		}
	}
	return funcs, methods
}

// calleeName resolves the flaggable callee of call: a plain identifier
// (same-package function) or a selector (method). It reports which map to
// consult.
func calleeName(call *ast.CallExpr) (name string, method bool, ok bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, false, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true, true
	}
	return "", false, false
}

// Check implements Analyzer.
func (e *ErrDrop) Check(_ *Module, pkg *Package) []Finding {
	if !matchPackages(e.Packages, pkg.ImportPath) {
		return nil
	}
	funcs, methods := errFuncs(pkg)
	var out []Finding
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		dropped := func(call *ast.CallExpr) bool {
			name, method, ok := calleeName(call)
			if !ok {
				return false
			}
			if method {
				return methods[name]
			}
			return funcs[name]
		}
		flag := func(call *ast.CallExpr, how string) {
			name, _, _ := calleeName(call)
			out = append(out, pkg.finding(e.Name(), call.Pos(),
				"error from %s %s in security-critical package %s; handle it (or annotate //%s)",
				name, how, pkg.ImportPath, AllowDropErrMarker))
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && dropped(call) {
					flag(call, "discarded (call used as a statement)")
				}
			case *ast.AssignStmt:
				// Flag a call whose every result lands in a blank.
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok || !dropped(call) {
					return true
				}
				for _, lhs := range stmt.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				flag(call, "assigned only to blanks")
			}
			return true
		})
	}
	return out
}
