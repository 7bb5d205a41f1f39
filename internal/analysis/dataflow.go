package analysis

// The forward dataflow layer on top of the CFG: identifier reference
// classification, a textbook reaching-definitions fixpoint, and the
// per-definition liveness query the deadstore and cryptomisuse rules
// share. Identifier identity comes from the module's tolerant type-check
// (so shadowing resolves correctly) and falls back to names.

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
	// RHS is the assigned expression; nil for zero-value declarations
	// and range variables.
	RHS ast.Expr
	// Complete marks a write that fully replaces the previous value
	// (plain = or :=). Compound assignments and ++/-- read the old value
	// first, so they are both a read and an incomplete write.
	Complete bool
	// Declared marks := and var declarations.
	Declared bool
	// Ranged marks range-loop key/value variables (reassigned every
	// iteration; never a dead-store candidate).
	Ranged bool
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

// nodeRefs classifies the identifier references of one CFG node into
// reads and writes. The walk is shallow: it does not descend into a
// RangeStmt body (lowered into its own blocks) but does descend into
// function literals, whose captured references count as reads at the
// point the literal is evaluated.
func nodeRefs(n ast.Node) (reads []*ast.Ident, writes []WriteRef) {
	var readExpr func(e ast.Expr)
	readExpr = func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.Ident:
				if x.Name != "_" {
					reads = append(reads, x)
				}
			case *ast.SelectorExpr:
				// Only the operand is a variable reference; Sel names a
				// field or method.
				readExpr(x.X)
				return false
			case *ast.KeyValueExpr:
				// A struct-literal key is a field name, not a variable;
				// map/array keys are real reads. Reading both is the
				// conservative choice only for maps — skip struct keys
				// when they are plain identifiers (field-name shape).
				if _, ok := x.Key.(*ast.Ident); !ok {
					readExpr(x.Key)
				}
				readExpr(x.Value)
				return false
			}
			return true
		})
	}
	// writeTarget classifies one assignment destination: a plain
	// identifier is a write; a selector/index/deref destination reads
	// (and keeps live) its root variable.
	writeTarget := func(e ast.Expr, rhs ast.Expr, complete, declared bool) {
		if id, ok := e.(*ast.Ident); ok {
			if id.Name != "_" {
				writes = append(writes, WriteRef{Ident: id, RHS: rhs, Complete: complete, Declared: declared})
			}
			return
		}
		readExpr(e)
	}

	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			readExpr(r)
		}
		complete := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
		declared := n.Tok == token.DEFINE
		for i, l := range n.Lhs {
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			} else if len(n.Rhs) == 1 {
				rhs = n.Rhs[0] // multi-value call
			}
			if !complete {
				readExpr(l) // compound assignment reads the old value
			}
			writeTarget(l, rhs, complete, declared)
		}
	case *ast.IncDecStmt:
		readExpr(n.X)
		writeTarget(n.X, nil, false, false)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				readExpr(v)
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				} else if len(vs.Values) == 1 {
					rhs = vs.Values[0]
				}
				if name.Name != "_" {
					writes = append(writes, WriteRef{Ident: name, RHS: rhs, Complete: true, Declared: true})
				}
			}
		}
	case *ast.RangeStmt:
		readExpr(n.X)
		mark := func(e ast.Expr) {
			if e == nil {
				return
			}
			if id, ok := e.(*ast.Ident); ok {
				if id.Name != "_" {
					writes = append(writes, WriteRef{Ident: id, Complete: true, Declared: n.Tok == token.DEFINE, Ranged: true})
				}
				return
			}
			readExpr(e)
		}
		mark(n.Key)
		mark(n.Value)
	case *ast.ExprStmt:
		readExpr(n.X)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			readExpr(r)
		}
	case *ast.SendStmt:
		readExpr(n.Chan)
		readExpr(n.Value)
	case *ast.GoStmt:
		readExpr(n.Call)
	case *ast.DeferStmt:
		readExpr(n.Call)
	case *ast.BranchStmt:
		// labels are not variables
	case ast.Expr:
		readExpr(n)
	case ast.Stmt:
		// Remaining statement kinds (LabeledStmt never reaches here;
		// nested blocks are lowered away). Walk conservatively as reads.
		ast.Inspect(n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name != "_" {
				reads = append(reads, id)
			}
			return true
		})
	}
	return reads, writes
}

// DefSite is one reaching definition: a write of Obj at a specific node.
type DefSite struct {
	Obj   any
	Write WriteRef
	Block *Block
	// NodeIdx is the position of the defining node within Block.Nodes.
	NodeIdx int
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
	g    *CFG
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
		g:      g,
		pt:     pt,
		byObj:  make(map[any][]int),
		defsAt: make(map[*Block]map[int][]int),
		in:     make(map[*Block]bitset),
	}
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			_, writes := nodeRefs(n)
			for _, w := range writes {
				idx := len(r.Defs)
				obj := identObj(pt, w.Ident)
				r.Defs = append(r.Defs, DefSite{Obj: obj, Write: w, Block: b, NodeIdx: i})
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

// liveStatus classifies one block for one object during the deadness
// query: the first thing the block does with the object.
type liveStatus int

const (
	transparent liveStatus = iota // neither reads nor fully overwrites
	readsFirst
	killsFirst
)

// blockStatus computes what b does with obj, scanning Nodes from `from`.
func blockStatus(pt *pkgTypes, b *Block, from int, obj any) liveStatus {
	for i := from; i < len(b.Nodes); i++ {
		reads, writes := nodeRefs(b.Nodes[i])
		for _, id := range reads {
			if identObj(pt, id) == obj {
				return readsFirst
			}
		}
		// Incomplete writes read the old value via nodeRefs above; a
		// complete write here means the old value is gone.
		for _, w := range writes {
			if w.Complete && identObj(pt, w.Ident) == obj {
				return killsFirst
			}
		}
	}
	return transparent
}

// DefIsDead reports whether the value written by def is never read: on
// every CFG path from the definition, the variable is overwritten or
// the function exits before any read. exitReads lists objects that are
// implicitly read at function exit (named results).
func DefIsDead(pt *pkgTypes, g *CFG, def *DefSite, exitReads map[any]bool) bool {
	// The rest of the defining block, after the defining node.
	switch blockStatus(pt, def.Block, def.NodeIdx+1, def.Obj) {
	case readsFirst:
		return false
	case killsFirst:
		return true
	}
	seen := map[*Block]bool{}
	var anyRead func(b *Block) bool
	anyRead = func(b *Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		if b == g.Exit && exitReads[def.Obj] {
			return true
		}
		switch blockStatus(pt, b, 0, def.Obj) {
		case readsFirst:
			return true
		case killsFirst:
			return false
		}
		for _, s := range b.Succs {
			if anyRead(s) {
				return true
			}
		}
		return false
	}
	for _, s := range def.Block.Succs {
		if anyRead(s) {
			return false
		}
	}
	return true
}
