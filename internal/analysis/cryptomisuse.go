package analysis

// The crypto-misuse rule family: path-sensitive checks over the CFG and
// reaching definitions that key material handed to the configured
// crypto entry points is neither hardcoded, too short, nor derived from
// insecure randomness; that nonces/IVs are not constant and not reused
// across sealing calls; and that MAC/tag comparisons go through a
// constant-time primitive. The consumer table lives in xlfconfig.go
// (XLFCryptoConfig); fixtures configure their own.
//
// Deliberate exceptions — the simulation's fixed demo keys — are waived
// with an `xlf:allow-cryptomisuse` comment carrying the justification.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// CryptoAllowMarker waives a cryptomisuse finding for its line (or the
// whole function from a doc comment).
const CryptoAllowMarker = "xlf:allow-cryptomisuse"

// CryptoKeyCall names one call that consumes key material.
type CryptoKeyCall struct {
	Pkg  string // declaring package import path
	Recv string // receiver type name for methods ("" for functions)
	Name string
	// KeyArg is the index of the key parameter.
	KeyArg int
	// MinKeyLen is the minimum acceptable key length in bytes (0 skips
	// the length check; lightweight 64/80-bit ciphers set it low by
	// design).
	MinKeyLen int
}

// CryptoNonceCall names one call that consumes a nonce/IV. Matching is
// syntactic (method name + arity) because AEAD-style Seal methods
// usually live on stdlib or generated types the oracle cannot resolve.
type CryptoNonceCall struct {
	Name     string
	NArgs    int
	NonceArg int
}

// CryptoConfig is the consumer table the analyzer enforces.
type CryptoConfig struct {
	Keys   []CryptoKeyCall
	Nonces []CryptoNonceCall
	// RandPkgs are packages whose output must never feed key or nonce
	// material (math/rand and friends).
	RandPkgs []string
}

// NewCryptoMisuse builds the cryptomisuse analyzer for one consumer
// table.
func NewCryptoMisuse(cfg CryptoConfig) Analyzer {
	return &cryptoMisuse{cfg: cfg, oracle: newTypeOracle()}
}

type cryptoMisuse struct {
	cfg    CryptoConfig
	oracle *typeOracle
}

func (c *cryptoMisuse) Name() string { return "cryptomisuse" }
func (c *cryptoMisuse) Doc() string {
	return "key material must not be hardcoded, short or math/rand-derived; nonces must be fresh; MAC compares must be constant-time"
}

func (c *cryptoMisuse) Prepare(pkgs []*Package) { c.oracle.check(pkgs) }

func (c *cryptoMisuse) Check(pkg *Package) []Finding {
	var out []Finding
	pt := c.oracle.typesOf(pkg)
	for fi := range pkg.Files {
		f := &pkg.Files[fi]
		if f.Test {
			// Test vectors legitimately hardcode keys and nonces.
			continue
		}
		allowed := allowedLines(pkg.Fset, f.AST, CryptoAllowMarker)
		imports := importMap(f.AST)
		for _, fn := range Functions(f.AST) {
			w := &cryptoWalker{
				c: c, pkg: pkg, pt: pt, imports: imports,
				g: BuildCFG(fn.Name, fn.Body),
			}
			w.rd = NewReachingDefs(w.g, pt)
			for _, fnd := range w.check() {
				if !allowed[fnd.Line] {
					out = append(out, fnd)
				}
			}
		}
	}
	return out
}

// cryptoWalker checks one function.
type cryptoWalker struct {
	c       *cryptoMisuse
	pkg     *Package
	pt      *pkgTypes
	imports map[string]string
	g       *CFG
	rd      *ReachingDefs

	findings []Finding
	// randTouched holds objects a RandPkgs call wrote into (directly or
	// via an assignment whose RHS draws from one).
	randTouched map[any]bool
}

// site locates one interesting call within the CFG.
type site struct {
	block *Block
	idx   int
	call  *ast.CallExpr
}

func (w *cryptoWalker) reportf(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, w.pkg.finding("cryptomisuse", pos, format, args...))
}

func (w *cryptoWalker) check() []Finding {
	w.collectRandTouched()

	nonceSites := make(map[any][]site) // nonce object -> consuming sites
	for _, b := range w.g.Blocks {
		for i, n := range b.Nodes {
			inspectNode(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false // literal bodies are separate functions
				case *ast.CallExpr:
					w.checkKeyCall(b, i, x)
					w.recordNonceSite(nonceSites, b, i, x)
					w.checkEqualCall(x)
				case *ast.BinaryExpr:
					w.checkCompare(x)
				}
				return true
			})
		}
	}
	w.checkNonceReuse(nonceSites)
	return w.findings
}

// ---------------------------------------------------------------------
// Key material.

// checkKeyCall matches call against the key-consumer table and vets the
// key argument.
func (w *cryptoWalker) checkKeyCall(b *Block, idx int, call *ast.CallExpr) {
	cal, _ := resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
	for _, spec := range w.c.cfg.Keys {
		if cal.name != spec.Name || cal.recv != spec.Recv || cal.pkg != spec.Pkg {
			continue
		}
		if spec.KeyArg >= len(call.Args) {
			continue
		}
		w.checkKeyArg(b, idx, call, call.Args[spec.KeyArg], spec)
	}
}

// checkKeyArg classifies the key expression: hardcoded literal, short
// make()ed buffer, or insecure-rand-derived — directly or through its
// reaching definitions.
func (w *cryptoWalker) checkKeyArg(b *Block, idx int, call *ast.CallExpr, key ast.Expr, spec CryptoKeyCall) {
	callee := exprText(call.Fun)
	if w.exprUsesRand(key) {
		w.reportf(call.Pos(), "key material for %s drawn from %s; use crypto/rand", callee, w.randPkgList())
		return
	}
	if n, hard, known := literalKeyLen(key); known {
		w.reportKeyLen(call.Pos(), callee, n, hard, spec)
		return
	}
	id, isID := key.(*ast.Ident)
	if !isID {
		return
	}
	obj := w.rd.Obj(id)
	if w.randTouched[obj] {
		w.reportf(call.Pos(), "key material %q for %s drawn from %s; use crypto/rand", id.Name, callee, w.randPkgList())
		return
	}
	defs := w.rd.At(b, idx, obj)
	if len(defs) == 0 {
		return // parameter or unknown origin: the caller is responsible
	}
	// Only report when every definition that can reach the call is a
	// literal: mixed paths mean at least one dynamic origin.
	worstHard := true
	worstLen := -1
	for _, d := range defs {
		n, hard, known := literalKeyLen(d.Write.RHS)
		if !known {
			return
		}
		worstHard = worstHard && hard
		if worstLen < 0 || n < worstLen {
			worstLen = n
		}
	}
	w.reportKeyLen(call.Pos(), callee, worstLen, worstHard, spec)
}

func (w *cryptoWalker) reportKeyLen(pos token.Pos, callee string, n int, hard bool, spec CryptoKeyCall) {
	short := spec.MinKeyLen > 0 && n < spec.MinKeyLen
	switch {
	case hard && short:
		w.reportf(pos, "hardcoded %d-byte key literal for %s (below the %d-byte minimum); inject provisioned key material",
			n, callee, spec.MinKeyLen)
	case hard:
		w.reportf(pos, "hardcoded %d-byte key literal for %s; inject provisioned key material", n, callee)
	case short:
		w.reportf(pos, "key for %s is only %d bytes (minimum %d)", callee, n, spec.MinKeyLen)
	}
}

// literalKeyLen computes the byte length of a statically-known key
// expression. hard marks content-hardcoded forms (literals) as opposed
// to fixed-size-but-dynamic ones (make).
func literalKeyLen(e ast.Expr) (n int, hard, known bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind == token.STRING {
			if s, err := strconv.Unquote(e.Value); err == nil {
				return len(s), true, true
			}
		}
	case *ast.CompositeLit:
		// []byte{0x01, ...}
		if arr, isArr := e.Type.(*ast.ArrayType); isArr {
			if id, isID := arr.Elt.(*ast.Ident); isID && (id.Name == "byte" || id.Name == "uint8") {
				return len(e.Elts), true, true
			}
		}
	case *ast.CallExpr:
		// []byte("...") conversion.
		if arr, isArr := e.Fun.(*ast.ArrayType); isArr && len(e.Args) == 1 {
			if id, isID := arr.Elt.(*ast.Ident); isID && (id.Name == "byte" || id.Name == "uint8") {
				if n, _, known := literalKeyLen(e.Args[0]); known {
					return n, true, true
				}
			}
		}
		// make([]byte, N) with a literal length.
		if id, isID := e.Fun.(*ast.Ident); isID && id.Name == "make" && len(e.Args) >= 2 {
			if lit, isLit := e.Args[1].(*ast.BasicLit); isLit && lit.Kind == token.INT {
				if v, err := strconv.Atoi(lit.Value); err == nil {
					return v, false, true
				}
			}
		}
	case *ast.ParenExpr:
		return literalKeyLen(e.X)
	}
	return 0, false, false
}

// ---------------------------------------------------------------------
// Insecure randomness.

// collectRandTouched marks every object that an insecure-rand call
// writes into: `rand.Read(k)`, `k = rand.Uint64()`, `k[i] = byte(rand.Intn(n))`.
func (w *cryptoWalker) collectRandTouched() {
	w.randTouched = make(map[any]bool)
	mark := func(e ast.Expr) {
		if id, isID := rootIdent(e); isID {
			w.randTouched[identObj(w.pt, id)] = true
		}
	}
	for _, b := range w.g.Blocks {
		for _, n := range b.Nodes {
			inspectNode(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.AssignStmt:
					rhsRand := false
					for _, r := range x.Rhs {
						rhsRand = rhsRand || w.exprUsesRand(r)
					}
					if rhsRand {
						for _, l := range x.Lhs {
							mark(l)
						}
					}
				case *ast.CallExpr:
					if w.callIsRand(x) {
						for _, a := range x.Args {
							mark(a)
						}
					}
				}
				return true
			})
		}
	}
}

// rootIdent peels selectors, indexes and derefs down to the base
// identifier.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// callIsRand reports whether call resolves to one of the configured
// insecure randomness packages.
func (w *cryptoWalker) callIsRand(call *ast.CallExpr) bool {
	cal, _ := resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
	for _, p := range w.c.cfg.RandPkgs {
		if cal.pkg == p {
			return true
		}
	}
	return false
}

// exprUsesRand reports whether e contains a call into a RandPkgs
// package.
func (w *cryptoWalker) exprUsesRand(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, isCall := x.(*ast.CallExpr); isCall && w.callIsRand(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (w *cryptoWalker) randPkgList() string {
	return strings.Join(w.c.cfg.RandPkgs, "/")
}

// ---------------------------------------------------------------------
// Nonce freshness.

// recordNonceSite matches nonce-consuming calls; constant nonces are
// reported immediately, variable nonces are recorded for the pairwise
// reuse walk.
func (w *cryptoWalker) recordNonceSite(sites map[any][]site, b *Block, idx int, call *ast.CallExpr) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return
	}
	for _, spec := range w.c.cfg.Nonces {
		if sel.Sel.Name != spec.Name || len(call.Args) != spec.NArgs || spec.NonceArg >= len(call.Args) {
			continue
		}
		if id, isID := sel.X.(*ast.Ident); isID && w.imports[id.Name] != "" && !isLocalIdent(w.pt, id) {
			continue // pkg.Seal(...) is not a sealing method
		}
		nonce := call.Args[spec.NonceArg]
		if _, hard, known := literalKeyLen(nonce); known && hard {
			w.reportf(call.Pos(), "constant nonce/IV passed to %s; nonces must be unique per message", exprText(call.Fun))
			continue
		}
		if w.exprUsesRand(nonce) {
			w.reportf(call.Pos(), "nonce for %s drawn from %s; use crypto/rand or a message counter",
				exprText(call.Fun), w.randPkgList())
			continue
		}
		if id, isID := nonce.(*ast.Ident); isID {
			obj := w.rd.Obj(id)
			if w.randTouched[obj] {
				w.reportf(call.Pos(), "nonce %q for %s drawn from %s; use crypto/rand or a message counter",
					id.Name, exprText(call.Fun), w.randPkgList())
				continue
			}
			sites[obj] = append(sites[obj], site{block: b, idx: idx, call: call})
		}
	}
}

// checkNonceReuse reports a finding when one sealing site is reachable
// from another (or from itself, through a loop) without the nonce being
// rewritten in between: both calls then see the same nonce value.
func (w *cryptoWalker) checkNonceReuse(sites map[any][]site) {
	for obj, list := range sites {
		reported := make(map[*ast.CallExpr]bool)
		for _, from := range list {
			for _, to := range list {
				if reported[to.call] {
					continue
				}
				if w.reachesWithoutKill(from, to, obj) {
					w.reportf(to.call.Pos(),
						"nonce %q is reused by this %s call without an intervening update; derive a fresh nonce per message",
						nonceName(to.call, w.c.cfg.Nonces), exprText(to.call.Fun))
					reported[to.call] = true
				}
			}
		}
	}
}

func nonceName(call *ast.CallExpr, specs []CryptoNonceCall) string {
	sel := call.Fun.(*ast.SelectorExpr)
	for _, spec := range specs {
		if sel.Sel.Name == spec.Name && len(call.Args) == spec.NArgs {
			if id, isID := call.Args[spec.NonceArg].(*ast.Ident); isID {
				return id.Name
			}
		}
	}
	return "?"
}

// reachesWithoutKill walks the CFG from just after `from` looking for
// `to` along paths where obj is never completely rewritten. from == to
// detects reuse through a loop back edge.
func (w *cryptoWalker) reachesWithoutKill(from, to site, obj any) bool {
	// nodeKills reports whether executing node (block b, index i) fully
	// rewrites obj.
	nodeKills := func(b *Block, i int) bool {
		_, writes := nodeRefs(b.Nodes[i])
		for _, wr := range writes {
			if wr.Complete && identObj(w.pt, wr.Ident) == obj {
				return true
			}
		}
		return false
	}
	// scan advances through b starting at node index start; it returns
	// (found, blocked).
	scan := func(b *Block, start int) (bool, bool) {
		for i := start; i < len(b.Nodes); i++ {
			if b == to.block && i == to.idx {
				return true, false
			}
			if nodeKills(b, i) {
				return false, true
			}
		}
		return false, false
	}
	if found, blocked := scan(from.block, from.idx+1); found {
		return true
	} else if blocked {
		return false
	}
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		if found, blocked := scan(b, 0); found {
			return true
		} else if blocked {
			return false
		}
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range from.block.Succs {
		if walk(s) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Constant-time comparison.

// macish reports whether an expression's name looks like MAC/tag/digest
// material, by whole camelCase/snake_case segment.
var macSegments = map[string]bool{
	"mac": true, "cmac": true, "hmac": true, "tag": true, "sig": true,
	"signature": true, "digest": true, "sum": true, "checksum": true,
}

func macish(e ast.Expr) bool {
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	case *ast.CallExpr:
		// m.Sum(nil) is mac-ish by method name; string(tag) and other
		// single-argument conversions keep the operand's name.
		if sel, isSel := e.Fun.(*ast.SelectorExpr); isSel {
			name = sel.Sel.Name
			break
		}
		if len(e.Args) == 1 {
			return macish(e.Args[0])
		}
		return false
	case *ast.SliceExpr:
		return macish(e.X)
	case *ast.ParenExpr:
		return macish(e.X)
	default:
		return false
	}
	for _, seg := range splitIdent(name) {
		if macSegments[seg] {
			return true
		}
	}
	return false
}

// splitIdent breaks an identifier into lowercase segments on case
// transitions, underscores and digits ("wantHMAC" -> want, hmac).
func splitIdent(name string) []string {
	var segs []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			segs = append(segs, string(cur))
			cur = nil
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_' || (r >= '0' && r <= '9'):
			flush()
		case r >= 'A' && r <= 'Z':
			// Start a new segment on lower->upper and on the last upper
			// of an acronym run ("HMACKey" -> hmac, key).
			if i > 0 && (runes[i-1] < 'A' || runes[i-1] > 'Z') {
				flush()
			} else if i+1 < len(runes) && runes[i+1] >= 'a' && runes[i+1] <= 'z' {
				flush()
			}
			cur = append(cur, r-'A'+'a')
		default:
			cur = append(cur, r)
		}
	}
	flush()
	return segs
}

// checkEqualCall flags bytes.Equal on a mac-ish operand.
func (w *cryptoWalker) checkEqualCall(call *ast.CallExpr) {
	cal, _ := resolveCall(w.pt, w.imports, w.pkg.ImportPath, call)
	if cal.pkg == "bytes" && cal.name == "Equal" && len(call.Args) == 2 {
		if macish(call.Args[0]) || macish(call.Args[1]) {
			w.reportf(call.Pos(),
				"MAC/tag compared with bytes.Equal; use crypto/hmac.Equal or crypto/subtle.ConstantTimeCompare")
		}
	}
}

// checkCompare flags ==/!= between mac-ish string values. Comparing
// integers named tagSize is fine; comparing tag strings is not.
func (w *cryptoWalker) checkCompare(n *ast.BinaryExpr) {
	if n.Op != token.EQL && n.Op != token.NEQ {
		return
	}
	side := func(e ast.Expr) bool { return macish(e) && w.stringish(e) }
	if side(n.X) || side(n.Y) {
		w.reportf(n.Pos(), "MAC/tag compared with %s; use crypto/hmac.Equal or crypto/subtle.ConstantTimeCompare", n.Op)
	}
}

// stringish reports whether e is string-typed: a string(...) conversion
// syntactically, or resolved to a string by the oracle.
func (w *cryptoWalker) stringish(e ast.Expr) bool {
	if call, isCall := e.(*ast.CallExpr); isCall && len(call.Args) == 1 {
		if id, isID := call.Fun.(*ast.Ident); isID && id.Name == "string" {
			return true
		}
	}
	if w.pt != nil {
		if tv, ok := w.pt.info.Types[e]; ok && tv.Type != nil {
			if basic, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && basic.Kind() == types.String {
				return true
			}
		}
	}
	return false
}
