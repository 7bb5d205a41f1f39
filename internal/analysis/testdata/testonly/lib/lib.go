package lib

// Shape is a module interface: Circle's Area is reached only through it.
type Shape interface{ Area() float64 }

type Circle struct{ R float64 }

func (c Circle) Area() float64 { return 3 * c.R * c.R }

// Perimeter has a test caller only; lib_test.go's interface does not count.
func (c Circle) Perimeter() float64 { return 6 * c.R } // want "\[testonly\] lib\.\(Circle\)\.Perimeter is exported but no non-test file uses it"

// String counts as used: the type-check cannot see fmt.Stringer.
func (c Circle) String() string { return "circle" }

func Total(shapes []Shape) float64 { return shapes[0].Area() }

type Counter struct{ n int }

func (c *Counter) Reset() { c.n = 0 }

// Gauge's Reset shares its name with Counter's, which the app calls.
type Gauge struct{ v int }

func (g *Gauge) Reset() { g.v = 0 } // want "\[testonly\] lib\.\(Gauge\)\.Reset"

// hidden is unexported, so only an interface could reach Exported.
type hidden struct{}

func (hidden) Exported() {}

// Keep has a caller outside the module.
//
//xlf:allow-testonly an out-of-module caller
func Keep() {}
