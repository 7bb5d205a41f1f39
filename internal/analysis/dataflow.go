package analysis

// The forward dataflow layer on top of the CFG: identifier write
// classification and a textbook reaching-definitions fixpoint, which
// cryptomisuse reads to trace key and nonce values. Identifier identity
// comes from the module's tolerant type-check (so shadowing resolves
// correctly) and falls back to names.

import (
	"go/ast"
	"go/token"
)

// identObj resolves an identifier to a stable object key: the
// types.Object when the tolerant checker has one, otherwise a name key.
// Shared by every rule that tracks variables.
func identObj(pt *pkgTypes, id *ast.Ident) any {
	if obj := pt.info.Defs[id]; obj != nil {
		return obj
	}
	if obj := pt.info.Uses[id]; obj != nil {
		return obj
	}
	return "ident:" + id.Name
}

// WriteRef is one assignment to an identifier inside a node.
type WriteRef struct {
	Ident *ast.Ident
	// RHS is the assigned expression; nil for zero-value declarations,
	// range variables and ++/--.
	RHS ast.Expr
	// Complete marks a write that fully replaces the previous value
	// (plain = or :=, a declaration, a range variable). Compound
	// assignments and ++/-- read the old value first.
	Complete bool
}

// inspectNode visits the parts of a CFG node that execute *at* that
// node. A RangeStmt head block stores the whole statement, but its body
// is lowered into separate blocks — walking it from the head would
// double-count body expressions — so only the range operands are
// visited. Every other node kind is walked fully.
func inspectNode(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.Key != nil {
			ast.Inspect(r.Key, fn)
		}
		if r.Value != nil {
			ast.Inspect(r.Value, fn)
		}
		ast.Inspect(r.X, fn)
		return
	}
	ast.Inspect(n, fn)
}

// nodeWrites lists the identifier writes of one CFG node: assignment,
// ++/--, var-declaration and range-variable targets. A selector, index
// or dereference destination writes through its root variable without
// replacing it, so it is not a write.
func nodeWrites(n ast.Node) []WriteRef {
	var writes []WriteRef
	add := func(e, rhs ast.Expr, complete bool) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			writes = append(writes, WriteRef{Ident: id, RHS: rhs, Complete: complete})
		}
	}
	// rhsOf picks the value assigned to target i of count: its own, or
	// the single multi-value call every target shares.
	rhsOf := func(i, count int, values []ast.Expr) ast.Expr {
		if len(values) == count {
			return values[i]
		}
		if len(values) == 1 {
			return values[0]
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		complete := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
		for i, l := range n.Lhs {
			add(l, rhsOf(i, len(n.Lhs), n.Rhs), complete)
		}
	case *ast.IncDecStmt:
		add(n.X, nil, false)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						add(name, rhsOf(i, len(vs.Names), vs.Values), true)
					}
				}
			}
		}
	case *ast.RangeStmt:
		add(n.Key, nil, true)
		add(n.Value, nil, true)
	}
	return writes
}

// DefSite is one reaching definition: a write of Obj.
type DefSite struct {
	Obj   any
	Write WriteRef
}

// bitset is a dense bit vector sized to the definition count.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) orInto(o bitset) bool {
	changed := false
	for i := range b {
		if n := b[i] | o[i]; n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b bitset) clone() bitset {
	out := make(bitset, len(b))
	copy(out, b)
	return out
}

// ReachingDefs is the classic forward may-analysis: which definitions of
// each variable can reach each program point.
type ReachingDefs struct {
	pt   *pkgTypes
	Defs []DefSite
	// byObj indexes Defs by object.
	byObj map[any][]int
	// defAt locates the defs generated by node (block, idx).
	defsAt map[*Block]map[int][]int
	in     map[*Block]bitset
}

// NewReachingDefs collects every definition in the graph and iterates
// the gen/kill fixpoint to convergence.
func NewReachingDefs(g *CFG, pt *pkgTypes) *ReachingDefs {
	r := &ReachingDefs{
		pt:     pt,
		byObj:  make(map[any][]int),
		defsAt: make(map[*Block]map[int][]int),
		in:     make(map[*Block]bitset),
	}
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			for _, w := range nodeWrites(n) {
				idx := len(r.Defs)
				obj := identObj(pt, w.Ident)
				r.Defs = append(r.Defs, DefSite{Obj: obj, Write: w})
				r.byObj[obj] = append(r.byObj[obj], idx)
				if r.defsAt[b] == nil {
					r.defsAt[b] = make(map[int][]int)
				}
				r.defsAt[b][i] = append(r.defsAt[b][i], idx)
			}
		}
	}
	n := len(r.Defs)
	out := make(map[*Block]bitset, len(g.Blocks))
	for _, b := range g.Blocks {
		r.in[b] = newBitset(n)
		out[b] = newBitset(n)
	}
	// Iterate to fixpoint (reverse-postorder would converge faster; the
	// functions here are small enough that simple rounds are fine).
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			in := r.in[b]
			for _, p := range b.Preds {
				in.orInto(out[p])
			}
			o := r.flowThrough(b, in.clone(), len(b.Nodes))
			for i := range o {
				if o[i] != out[b][i] {
					out[b] = o
					changed = true
					break
				}
			}
		}
	}
	return r
}

// flowThrough applies gen/kill for Nodes[0:upto] of b to the set.
func (r *ReachingDefs) flowThrough(b *Block, set bitset, upto int) bitset {
	for i := 0; i < upto; i++ {
		for _, d := range r.defsAt[b][i] {
			def := r.Defs[d]
			if def.Write.Complete {
				for _, other := range r.byObj[def.Obj] {
					set.clear(other)
				}
			}
			set.set(d)
		}
	}
	return set
}

// At returns the definitions of obj reaching the point just before
// Nodes[nodeIdx] of block b.
func (r *ReachingDefs) At(b *Block, nodeIdx int, obj any) []*DefSite {
	set := r.flowThrough(b, r.in[b].clone(), nodeIdx)
	var out []*DefSite
	for _, d := range r.byObj[obj] {
		if set.has(d) {
			out = append(out, &r.Defs[d])
		}
	}
	return out
}

// Obj resolves an identifier with this analysis's resolver.
func (r *ReachingDefs) Obj(id *ast.Ident) any { return identObj(r.pt, id) }
