package analysis

// Tests for the concurrency-safety layer: lockorder, goroleak and
// hotpathalloc, each against its `// want` fixture tree,
// plus a fuzz smoke over the lock-order graph construction.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", NewLockOrder())
}

func TestGoroLeakFixture(t *testing.T) {
	checkFixture(t, "goroleak", NewGoroLeak())
}

func TestHotPathAllocFixture(t *testing.T) {
	checkFixture(t, "hotpathalloc", NewHotPathAlloc())
}

// FuzzLockOrderGraph feeds arbitrary source through the full lockorder
// pipeline — summaries, CFG dataflow, cycle search — and asserts it
// neither panics nor loops. scripts/check.sh runs this as a smoke
// target alongside FuzzCFGBuild.
func FuzzLockOrderGraph(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "lockorder", "src.go"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	f.Add("package p\nimport \"sync\"\nvar mu sync.Mutex\nfunc f() { mu.Lock(); mu.Lock() }")
	f.Add("package p\nfunc f() { defer g(); go h() }\nfunc g() {}\nfunc h() {}")
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
		pkgs := []*Package{pkg}
		_ = NewModule(pkgs).Run(pkgs, []Analyzer{NewLockOrder()}, 1)
	})
}
