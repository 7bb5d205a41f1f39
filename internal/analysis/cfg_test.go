package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCFGGolden lowers every function in testdata/cfg/src.go and pins
// the dumps byte-for-byte. Regenerate with UPDATE_GOLDEN=1.
func TestCFGGolden(t *testing.T) {
	src := filepath.Join("testdata", "cfg", "src.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, fn := range Functions(f) {
		g := BuildCFG(fn.Name, fn.Body)
		checkCFGInvariants(t, g)
		out = append(out, dumpCFG(g, fset)...)
		out = append(out, '\n')
	}

	golden := filepath.Join("testdata", "cfg", "src.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(out) != string(want) {
		t.Errorf("CFG dumps differ from %s (UPDATE_GOLDEN=1 regenerates)\n--- got ---\n%s", golden, out)
	}
}

// checkCFGInvariants asserts the structural properties every analysis
// relies on: block 0 is the entry, the exit has no successors, edges are
// symmetric between Succs and Preds, and indices are dense.
func checkCFGInvariants(t *testing.T, g *CFG) {
	t.Helper()
	if len(g.Blocks) == 0 {
		t.Fatalf("%s: no blocks", g.Name)
	}
	if g.Blocks[0].Kind != KindEntry {
		t.Errorf("%s: block 0 is %s, want entry", g.Name, g.Blocks[0].Kind)
	}
	if g.Exit == nil || len(g.Exit.Succs) != 0 {
		t.Errorf("%s: exit missing or has successors", g.Name)
	}
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Errorf("%s: block at %d has Index %d", g.Name, i, b.Index)
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				t.Errorf("%s: edge b%d->b%d missing from Preds", g.Name, b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				t.Errorf("%s: pred b%d of b%d has no matching Succ", g.Name, p.Index, b.Index)
			}
		}
	}
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

// TestCFGOverRepo builds a CFG for every function in the real module —
// a smoke test that the builder tolerates all production syntax.
func TestCFGOverRepo(t *testing.T) {
	pkgs, err := LoadModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	funcs := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, fn := range Functions(f.AST) {
				g := BuildCFG(fn.Name, fn.Body)
				checkCFGInvariants(t, g)
				funcs++
			}
		}
	}
	if funcs < 100 {
		t.Errorf("built only %d CFGs; module enumeration looks broken", funcs)
	}
}

// FuzzCFGBuild feeds arbitrary source through the parser and, when it
// parses, asserts the builder neither panics nor produces an
// inconsistent graph. scripts/check.sh runs this as a smoke target.
func FuzzCFGBuild(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "cfg", "src.go"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("package p\nfunc f() { for { select {} } }")
	f.Add("package p\nfunc f(x int) { L: goto L; switch x { case 1: fallthrough; default: } }")
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		for _, fn := range Functions(file) {
			g := BuildCFG(fn.Name, fn.Body)
			if len(g.Blocks) == 0 || g.Exit == nil {
				t.Fatalf("%s: degenerate CFG", fn.Name)
			}
			for _, b := range g.Blocks {
				for _, s := range b.Succs {
					if s == nil {
						t.Fatalf("%s: nil successor in b%d", fn.Name, b.Index)
					}
				}
			}
			_ = dumpCFG(g, fset)
		}
	})
}

// dumpCFG renders g in a stable textual form for the golden test: one
// line per block with kind, terminator flag and successor list, then one
// indented line per node.
func dumpCFG(g *CFG, fset *token.FileSet) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "func %s\n", g.Name)
	for _, blk := range g.Blocks {
		fmt.Fprintf(&buf, "b%d (%s)", blk.Index, blk.Kind)
		if blk.Panics {
			buf.WriteString(" panics")
		}
		buf.WriteString(" ->")
		if len(blk.Succs) == 0 {
			buf.WriteString(" .")
		}
		for _, s := range blk.Succs {
			fmt.Fprintf(&buf, " b%d", s.Index)
		}
		buf.WriteByte('\n')
		for _, n := range blk.Nodes {
			fmt.Fprintf(&buf, "\t%s\n", nodeText(fset, n))
		}
	}
	return buf.String()
}

// nodeText renders one AST node as a single line of source.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := buf.String()
	s = strings.ReplaceAll(s, "\n", " ")
	s = strings.ReplaceAll(s, "\t", "")
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return s
}
