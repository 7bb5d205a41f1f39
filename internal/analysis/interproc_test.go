package analysis

// Tests for the interprocedural determinism layer: the
// call-graph engine's edge classification, fixpoint and witness chains,
// the globalmut/maporder fixtures, the transitive half of
// hotpathalloc, and a fuzz smoke over graph construction.

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestDetFlowFixture runs the determinism rule on a caller-supplied call
// graph, the way xlf-vet shares one graph across the graph-backed rules.
// The fixture's boundary-call cases (sim/flow.go, sim/deep.go) reach the
// clock only through package util, which lies outside the covered set, so
// the supplied graph must index those helpers for the findings to appear.
func TestDetFlowFixture(t *testing.T) {
	g := NewCallGraph()
	checkFixture(t, "determinism", NewDeterminism([]string{fixtureModule + "/internal/sim"}, g))
	for _, name := range []string{"Stamp", "now", "Draw", "C01", "C35"} {
		if g.Func(funcKey(fixtureModule+"/internal/util", "", name)) == nil {
			t.Errorf("supplied call graph does not index util.%s", name)
		}
	}
}

func TestGlobalMutFixture(t *testing.T) {
	checkFixture(t, "globalmut", NewGlobalMut([]string{fixtureModule + "/internal/sim"}, nil))
}

func TestMapOrderFixture(t *testing.T) {
	sinks := []TaintRef{
		{Pkg: "fmt", Name: "Println"},
		{Pkg: "fmt", Name: "Printf"},
	}
	checkFixture(t, "maporder", NewMapOrder([]string{fixtureModule + "/internal/sim"}, sinks, nil))
}

// TestHotPathTransFixture exercises the transitive half of hotpathalloc,
// which only activates on a shared graph (nil keeps the historical
// intraprocedural behavior, pinned by TestHotPathAllocFixture).
func TestHotPathTransFixture(t *testing.T) {
	checkFixture(t, "hotpathtrans", NewHotPathAlloc(NewCallGraph()))
}

// graphPackages parses one file per package from src keyed by import
// path, sharing a fileset the way LoadModule does.
func graphPackages(t *testing.T, srcs map[string]string) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*Package
	// Deterministic package order for Build.
	var paths []string
	for p := range srcs {
		paths = append(paths, p)
	}
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[j] < paths[i] {
				paths[i], paths[j] = paths[j], paths[i]
			}
		}
	}
	for _, path := range paths {
		name := strings.ReplaceAll(path, "/", "_") + ".go"
		file, err := parser.ParseFile(fset, name, srcs[path], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: path,
			Fset:       fset,
			Files:      []File{{Name: name, AST: file}},
		})
	}
	return pkgs
}

// TestCallGraphEdgeKinds pins the edge classification: plain, deferred,
// spawned and closure calls plus method/function value references.
func TestCallGraphEdgeKinds(t *testing.T) {
	g := NewCallGraph()
	g.Build(graphPackages(t, map[string]string{
		"example.com/m/a": `package a

import "example.com/m/b"

type T struct{}

func (T) M() {}

func caller() {
	b.Helper()
	defer b.Helper()
	go b.Helper()
	func() { b.Helper() }()
	f := b.Helper
	var t T
	m := t.M
	_, _ = f, m
}
`,
		"example.com/m/b": `package b

func Helper() {}
`,
	}))

	fn := g.Func(funcKey("example.com/m/a", "", "caller"))
	if fn == nil {
		t.Fatal("caller not indexed")
	}
	got := make(map[string]int)
	for _, e := range fn.Edges {
		if e.Fallback {
			t.Errorf("unexpected fallback edge to %s", e.Callee)
		}
		kind := [...]string{"call", "defer", "go", "closure", "ref"}[e.Kind]
		got[FuncDisplay(e.Callee)+"/"+kind]++
	}
	want := map[string]int{
		"b.Helper/call":    1,
		"b.Helper/defer":   1,
		"b.Helper/go":      1,
		"b.Helper/closure": 1,
		"b.Helper/ref":     1,
		"a.(T).M/ref":      1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("edge %s: got %d, want %d (all: %v)", k, got[k], n, got)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected edge %s (all: %v)", k, got)
		}
	}
}

// TestCallGraphFixpoint checks bottom-up propagation, the recursion
// cap, and maxFacts truncation to the smallest elements.
func TestCallGraphFixpoint(t *testing.T) {
	g := NewCallGraph()
	g.Build(graphPackages(t, map[string]string{
		"example.com/m/p": `package p

func a() { b() }

func b() { c(); c() }

func c() { c() }
`,
	}))
	key := func(name string) string { return funcKey("example.com/m/p", "", name) }
	direct := map[string][]string{
		key("c"): {"zulu", "alpha"},
	}
	follow := func(CallEdge) bool { return true }

	all := g.Fixpoint(direct, follow, 0)
	for _, name := range []string{"a", "b", "c"} {
		if got := strings.Join(all[key(name)], ","); got != "alpha,zulu" {
			t.Errorf("facts(%s) = %q, want %q", name, got, "alpha,zulu")
		}
	}

	one := g.Fixpoint(direct, follow, 1)
	if got := strings.Join(one[key("a")], ","); got != "alpha" {
		t.Errorf("witness facts(a) = %q, want smallest element %q", got, "alpha")
	}
}

// TestCallGraphChain checks the witness path and the follow predicate's
// pruning.
func TestCallGraphChain(t *testing.T) {
	g := NewCallGraph()
	g.Build(graphPackages(t, map[string]string{
		"example.com/m/p": `package p

func a() { b() }

func b() { go c() }

func c() {}
`,
	}))
	key := func(name string) string { return funcKey("example.com/m/p", "", name) }
	isC := func(k string) bool { return k == key("c") }

	chain := g.Chain(key("a"), isC, func(CallEdge) bool { return true })
	if got := displayChain(chain); got != "p.a → p.b → p.c" {
		t.Errorf("chain = %q, want %q", got, "p.a → p.b → p.c")
	}
	callsOnly := g.Chain(key("a"), isC, func(e CallEdge) bool { return e.Kind == EdgeCall })
	if callsOnly != nil {
		t.Errorf("calls-only chain = %v, want nil (c only reachable via go)", callsOnly)
	}
	if g.Chain(key("missing"), isC, func(CallEdge) bool { return true }) != nil {
		t.Error("chain from unindexed key should be nil")
	}
}

// FuzzCallGraph feeds arbitrary source through graph construction, the
// fixpoint and the chain search, asserting none of them panic or loop —
// self-recursion, mutual recursion and ambiguous method names included.
// scripts/check.sh runs this as a smoke target.
func FuzzCallGraph(f *testing.F) {
	f.Add("package p\nfunc a() { a() }")
	f.Add("package p\nfunc a() { b() }\nfunc b() { a() }")
	f.Add("package p\ntype T struct{}\nfunc (T) M() { var t T; f := t.M; f() }")
	f.Add("package p\nfunc a() { defer a(); go a(); func() { a() }() }")
	f.Add("package p\nimport \"time\"\nfunc a() { _ = time.Now }")
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		pkg := &Package{
			ImportPath: "fuzz",
			Fset:       fset,
			Files:      []File{{Name: "fuzz.go", AST: file}},
		}
		g := NewCallGraph()
		g.Build([]*Package{pkg})
		direct := make(map[string][]string)
		for _, key := range g.Keys() {
			direct[key] = []string{FuncDisplay(key)}
		}
		facts := g.Fixpoint(direct, func(CallEdge) bool { return true }, 1)
		for _, key := range g.Keys() {
			_ = g.Chain(key, func(k string) bool { return len(facts[k]) > 0 }, func(CallEdge) bool { return true })
		}
	})
}
