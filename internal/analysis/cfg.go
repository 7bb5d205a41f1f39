package analysis

// Control-flow graphs over go/ast function bodies. The path-sensitive
// rule, cryptomisuse, runs on this engine: a function body is lowered
// into basic blocks connected by the explicit control-flow edges
// (if/for/range/switch/select, labeled break/continue, goto, return,
// explicit panic), the reaching-definitions fixpoint in dataflow.go
// iterates over the block graph, and cfgReaches searches its paths.
//
// The builder is deliberately syntactic — it needs no type information,
// so it works on the same tolerant source set every other analyzer uses.
// Function literals are not inlined: a FuncLit is an opaque expression
// in the enclosing graph, and cryptomisuse builds a separate CFG per
// literal via Functions.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// BlockKind labels why a basic block exists; it only affects Dump output
// and debuggability, never the analysis semantics.
type BlockKind string

// Block kinds produced by the builder.
const (
	KindEntry      BlockKind = "entry"
	KindExit       BlockKind = "exit"
	KindBody       BlockKind = "body"
	KindIfThen     BlockKind = "if.then"
	KindIfElse     BlockKind = "if.else"
	KindIfJoin     BlockKind = "if.join"
	KindForHead    BlockKind = "for.head"
	KindForBody    BlockKind = "for.body"
	KindForPost    BlockKind = "for.post"
	KindForJoin    BlockKind = "for.join"
	KindRangeHead  BlockKind = "range.head"
	KindRangeBody  BlockKind = "range.body"
	KindRangeJoin  BlockKind = "range.join"
	KindSwitchCase BlockKind = "switch.case"
	KindSwitchJoin BlockKind = "switch.join"
	KindSelectComm BlockKind = "select.comm"
	KindSelectJoin BlockKind = "select.join"
	KindLabel      BlockKind = "label"
)

// Block is one basic block: a maximal run of straight-line nodes. Nodes
// holds statements and the condition/tag expressions evaluated in the
// block, in execution order.
type Block struct {
	Index int
	Kind  BlockKind
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Panics marks a block terminated by an explicit panic (or a
	// recognised no-return call like os.Exit): its edge to Exit is a
	// panic edge, not a return.
	Panics bool
}

// CFG is the control-flow graph of one function body. Blocks[0] is the
// entry; Exit is the unique synthetic exit that every return, panic and
// final fallthrough reaches.
type CFG struct {
	Name   string
	Blocks []*Block
	Exit   *Block
}

// Function is one analyzable function body: a declaration or a literal.
type Function struct {
	// Name is the declared name, with "(Recv)." prefix for methods and a
	// "$litN" suffix for function literals nested inside Decl.
	Name string
	Decl *ast.FuncDecl // enclosing declaration (also set for literals)
	Lit  *ast.FuncLit  // non-nil for function literals
	Body *ast.BlockStmt
	Type *ast.FuncType
}

// Functions enumerates every function body in a file — each declaration
// and, as separate entries, each function literal nested inside it —
// so path-sensitive rules can analyze closures on their own graphs.
func Functions(f *ast.File) []Function {
	var out []Function
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if recv := declRecv(fd); recv != "" {
			name = "(" + recv + ")." + name
		}
		out = append(out, Function{Name: name, Decl: fd, Body: fd.Body, Type: fd.Type})
		lit := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			fl, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, Function{
				Name: fmt.Sprintf("%s$lit%d", name, lit),
				Decl: fd, Lit: fl, Body: fl.Body, Type: fl.Type,
			})
			lit++
			return true
		})
	}
	return out
}

// BuildCFG lowers one function body into a control-flow graph.
func BuildCFG(name string, body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{Name: name}}
	entry := b.newBlock(KindEntry)
	b.cfg.Exit = b.newBlock(KindExit)
	b.cur = entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.resolveGotos()
	for _, blk := range b.cfg.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.cfg
}

// cfgBuilder carries the construction state: the current block (nil when
// the previous statement terminated control flow) plus the break,
// continue and label targets in scope.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// loops is the enclosing breakable/continuable scope stack.
	loops []loopScope
	// labelBlocks maps a label name to its statement's head block, for
	// goto resolution (labels can be referenced before declaration).
	labelBlocks map[string]*Block
	// pendingGotos are goto statements seen before their label.
	pendingGotos []pendingGoto
	// pendingLabel threads the label of a LabeledStmt to the loop or
	// switch statement it wraps, so `L: for { break L }` resolves.
	pendingLabel string
}

type loopScope struct {
	label      string
	breakTo    *Block // nil for scopes that only catch labeled break (none)
	continueTo *Block // nil for switch/select scopes
	fallTo     *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock(kind BlockKind) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, opening a fresh one when the
// previous statement terminated flow (such trailing blocks stay
// predecessor-less, which is exactly what go vet's unreachable pass
// reports).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock(KindBody)
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt lowers one statement.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock(KindIfJoin)

		then := b.newBlock(KindIfThen)
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, join)
		}

		if s.Else != nil {
			els := b.newBlock(KindIfElse)
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock(KindForHead)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		join := b.newBlock(KindForJoin)
		post := head
		if s.Post != nil {
			post = b.newBlock(KindForPost)
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}

		body := b.newBlock(KindForBody)
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, join) // condition may be false on entry
		}
		b.pushLoop(loopScope{label: b.takeLabel(s), breakTo: join, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		b.popLoop()
		b.cur = join

	case *ast.RangeStmt:
		head := b.newBlock(KindRangeHead)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		head.Nodes = append(head.Nodes, s)
		join := b.newBlock(KindRangeJoin)
		body := b.newBlock(KindRangeBody)
		b.edge(head, body)
		b.edge(head, join) // the range may be empty

		b.pushLoop(loopScope{label: b.takeLabel(s), breakTo: join, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.popLoop()
		b.cur = join

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, b.takeLabel(s))

	case *ast.TypeSwitchStmt:
		var tag ast.Node = s.Assign
		b.switchStmtNode(s.Init, tag, s.Body, b.takeLabel(s))

	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock(KindBody)
			b.cur = head
		}
		join := b.newBlock(KindSelectJoin)
		b.pushLoop(loopScope{label: b.takeLabel(s), breakTo: join})
		anyComm := false
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			anyComm = true
			blk := b.newBlock(KindSelectComm)
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		}
		b.popLoop()
		if !anyComm {
			// select{} blocks forever: no edge to join.
			b.edge(head, b.cfg.Exit)
		}
		b.cur = join

	case *ast.LabeledStmt:
		head := b.newBlock(KindLabel)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = head
		if b.labelBlocks == nil {
			b.labelBlocks = make(map[string]*Block)
		}
		b.labelBlocks[s.Label.Name] = head
		// Loop/switch statements consume the label for break/continue
		// targeting via takeLabel (the label is re-discovered there).
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findScope(s.Label, true); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit) // malformed; stay safe
			}
			b.cur = nil
		case token.CONTINUE:
			if t := b.findScope(s.Label, false); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
			b.cur = nil
		case token.GOTO:
			name := ""
			if s.Label != nil {
				name = s.Label.Name
			}
			if t, ok := b.labelBlocks[name]; ok {
				b.edge(b.cur, t)
			} else {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{b.cur, name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			if t := b.fallthroughTarget(); t != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isNoReturnCall(s.X) {
			b.cur.Panics = true
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assignments, declarations, go/send/inc-dec: straight-line.
		b.add(s)
	}
}

// switchStmt lowers an expression switch.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) {
	var tagNode ast.Node
	if tag != nil {
		tagNode = tag
	}
	b.switchStmtNode(init, tagNode, body, label)
}

// switchStmtNode is the shared lowering for expression and type
// switches. Each case body becomes a block reachable from the head;
// fallthrough chains a case into the next one's body.
func (b *cfgBuilder) switchStmtNode(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, label string) {
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock(KindBody)
		b.cur = head
	}
	join := b.newBlock(KindSwitchJoin)

	// Pre-create case blocks so fallthrough can target the next one.
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock(KindSwitchCase)
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, cc := range clauses {
		var ft *Block
		if i+1 < len(blocks) {
			ft = blocks[i+1]
		}
		b.pushLoop(loopScope{label: label, breakTo: join, fallTo: ft})
		b.cur = blocks[i]
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
		b.popLoop()
	}
	b.cur = join
}

func (b *cfgBuilder) pushLoop(s loopScope) { b.loops = append(b.loops, s) }
func (b *cfgBuilder) popLoop()             { b.loops = b.loops[:len(b.loops)-1] }

// takeLabel consumes the label attached to the statement being lowered.
func (b *cfgBuilder) takeLabel(ast.Stmt) string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findScope resolves a break (wantBreak) or continue target.
func (b *cfgBuilder) findScope(label *ast.Ident, wantBreak bool) *Block {
	name := ""
	if label != nil {
		name = label.Name
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		s := b.loops[i]
		if name != "" && s.label != name {
			continue
		}
		if wantBreak {
			if s.breakTo != nil {
				return s.breakTo
			}
		} else if s.continueTo != nil {
			return s.continueTo
		}
		if name != "" {
			return nil // labeled the wrong kind of statement
		}
	}
	return nil
}

func (b *cfgBuilder) fallthroughTarget() *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].fallTo != nil {
			return b.loops[i].fallTo
		}
	}
	return nil
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.pendingGotos {
		if t, ok := b.labelBlocks[g.label]; ok {
			b.edge(g.from, t)
		} else {
			b.edge(g.from, b.cfg.Exit) // undeclared label; malformed source
		}
	}
}

// isNoReturnCall reports whether expr is an explicit panic or one of the
// recognised process-terminating calls (os.Exit, log.Fatal*). The check
// is syntactic; a shadowed `panic` identifier would be misread, which is
// acceptable for a linter.
func isNoReturnCall(expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		recv, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		if recv.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		if recv.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal") {
			return true
		}
	}
	return false
}

// exprText renders an expression as compact source text, for
// diagnostics ("hmac.New").
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	_ = cfg.Fprint(&buf, token.NewFileSet(), e)
	return strings.Join(strings.Fields(buf.String()), " ")
}

// containsCall reports whether n (a CFG node: a range head counts only
// its operands) contains a call pred accepts.
func containsCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	found := false
	inspectNode(n, func(x ast.Node) bool {
		if call, isCall := x.(*ast.CallExpr); isCall && !found {
			found = pred(call)
		}
		return !found
	})
	return found
}

// cfgReaches reports whether a CFG path that starts just after
// Nodes[idx] of b reaches a node goal accepts before any node stop
// accepts. The start block is not marked visited, so a path that loops
// back to b scans it again from its first node.
func cfgReaches(b *Block, idx int, goal func(*Block, int) bool, stop func(ast.Node) bool) bool {
	scan := func(blk *Block, from int) (found, stopped bool) {
		for i := from; i < len(blk.Nodes); i++ {
			if goal(blk, i) {
				return true, false
			}
			if stop(blk.Nodes[i]) {
				return false, true
			}
		}
		return false, false
	}
	if found, stopped := scan(b, idx+1); found || stopped {
		return found
	}
	seen := map[*Block]bool{}
	var walk func(blk *Block) bool
	walk = func(blk *Block) bool {
		if seen[blk] {
			return false
		}
		seen[blk] = true
		if found, stopped := scan(blk, 0); found || stopped {
			return found
		}
		for _, s := range blk.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range b.Succs {
		if walk(s) {
			return true
		}
	}
	return false
}
