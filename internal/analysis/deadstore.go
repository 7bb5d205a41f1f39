package analysis

// deadstore: a path-sensitive analyzer over the CFG. It reports a
// complete write to a local variable whose value can never be read on
// any path (every path overwrites it or exits first), built on reaching
// definitions + the DefIsDead query. Unreachable statements are left to
// go vet's unreachable pass.
//
// This is a correctness signal in this codebase rather than style: a
// dead store to a nonce or a tag variable usually means the fresh value
// was computed and then never fed into the seal/verify call.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadStoreAllowMarker waives a deadstore finding for its line.
const DeadStoreAllowMarker = "xlf:allow-deadstore"

// NewDeadStore builds the dead-store analyzer.
func NewDeadStore() Analyzer { return deadStore{} }

type deadStore struct{}

func (deadStore) Name() string { return "deadstore" }
func (deadStore) Doc() string {
	return "a value assigned to a local variable must be readable on some path"
}
func (deadStore) Marker() string { return DeadStoreAllowMarker }

func (deadStore) Check(m *Module, pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, fn := range Functions(f.AST) {
			out = append(out, checkDeadStores(pkg, m.typesOf(pkg), fn)...)
		}
	}
	return out
}

func checkDeadStores(pkg *Package, pt *pkgTypes, fn Function) []Finding {
	g := BuildCFG(fn.Name, fn.Body)
	rd := NewReachingDefs(g, pt)
	reach := g.Reachable()
	exit := exitReadSet(pt, g, fn)
	captured := capturedVars(pt, fn)

	var out []Finding
	for i := range rd.Defs {
		def := &rd.Defs[i]
		w := def.Write
		switch {
		case !w.Complete || w.Ranged:
			// Compound assignments read the old value; range variables
			// are rewritten by the loop itself.
			continue
		case w.RHS == nil:
			// `var x T` zero-value declarations are shape, not a store.
			continue
		case isTypeSwitchGuard(w.RHS):
			// In `switch v := x.(type)` every case body binds its own
			// implicit object, so the guard write never reads as used.
			continue
		case !reach[def.Block]:
			// Unreachable stores are go vet's unreachable finding.
			continue
		case exit[def.Obj]:
			// Named results and defer-read variables are read at exit.
			continue
		case captured[def.Obj]:
			// A closure capturing the variable can observe any write
			// whenever it runs; the CFG cannot order those reads.
			continue
		case !declaredWithin(pt, fn, def.Obj):
			// Writes to globals and closure-captured variables escape the
			// function's CFG; their readers are elsewhere.
			continue
		}
		if DefIsDead(pt, g, def, exit) {
			out = append(out, pkg.finding("deadstore", w.Ident.Pos(),
				"value assigned to %s is never read on any path; remove the dead store or use the value",
				w.Ident.Name))
		}
	}
	return out
}

// isTypeSwitchGuard matches the `x.(type)` form only legal in a type
// switch guard.
func isTypeSwitchGuard(rhs ast.Expr) bool {
	ta, ok := rhs.(*ast.TypeAssertExpr)
	return ok && ta.Type == nil
}

// exitReadSet collects the objects implicitly read when the function
// exits: named results, and anything a deferred call (or a closure it
// runs) references — defers observe the variable's final value.
func exitReadSet(pt *pkgTypes, g *CFG, fn Function) map[any]bool {
	exit := make(map[any]bool)
	if fn.Type.Results != nil {
		for _, field := range fn.Type.Results.List {
			for _, name := range field.Names {
				exit[identObj(pt, name)] = true
			}
		}
	}
	for _, d := range g.Defers {
		ast.Inspect(d, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name != "_" {
				exit[identObj(pt, id)] = true
			}
			return true
		})
	}
	return exit
}

// capturedVars collects objects referenced inside function literals but
// declared outside them — by-reference captures whose reads the
// enclosing CFG cannot place. Without type info every identifier a
// literal mentions is treated as captured.
func capturedVars(pt *pkgTypes, fn Function) map[any]bool {
	out := make(map[any]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			id, isID := x.(*ast.Ident)
			if !isID || id.Name == "_" {
				return true
			}
			obj := identObj(pt, id)
			if v, isVar := obj.(*types.Var); isVar {
				if lit.Pos() <= v.Pos() && v.Pos() <= lit.End() {
					return true // the literal's own local
				}
			}
			out[obj] = true
			return true
		})
		return false // inner literals are covered by the walk above
	})
	return out
}

// declaredWithin reports whether obj is declared inside fn (body or
// parameter list). With checked types this is positional; with the
// string fallback it is approximated by "some definition in this
// function declares it", which rejects globals by name.
func declaredWithin(pt *pkgTypes, fn Function, obj any) bool {
	if v, ok := obj.(*types.Var); ok {
		return fn.Type.Pos() <= v.Pos() && v.Pos() <= fn.Body.End()
	}
	name, ok := obj.(string)
	if !ok {
		return false
	}
	declared := false
	ast.Inspect(fn.Body, func(x ast.Node) bool {
		if declared {
			return false
		}
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for _, l := range x.Lhs {
					if id, isID := l.(*ast.Ident); isID && "ident:"+id.Name == name {
						declared = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range x.Names {
				if "ident:"+id.Name == name {
					declared = true
				}
			}
		}
		return true
	})
	return declared
}
