// Aliased imports and shadowing locals: the rule resolves the qualifier
// by go/types object identity, so wall-clock reads through an import
// alias are caught and a local variable that happens to share an import
// package's name stays quiet.
package sim

import (
	r "math/rand"
	t "time"
)

// A package may declare several init functions; the call graph indexes
// one of them, and the rule scans the rest.
func init() {
	_ = t.Now() // want "\[determinism\] wall-clock read time.Now"
}

func aliased(t0 t.Time) {
	_ = t.Now()     // want "\[determinism\] wall-clock read time.Now"
	_ = t.Since(t0) // want "\[determinism\] wall-clock read time.Since"
	_ = r.Intn(5)   // want "\[determinism\] global math/rand.Intn"
	_ = r.New(r.NewSource(1)).Intn(5)
}

// fakeClock stands in for a local value named after an import.
type fakeClock struct{}

func (fakeClock) Now() int     { return 0 }
func (fakeClock) Intn(int) int { return 0 }

func shadowed() {
	time := fakeClock{}
	rand := fakeClock{}
	_ = time.Now() // a local, not the time package
	_ = rand.Intn(3)
}
