// Package sim is a scheduler root: globalmut reports its direct
// package-level writes at the assignment and transitive ones at the
// boundary call into example.com/m/internal/reg.
package sim

import "example.com/m/internal/reg"

var ticks int

var seen = map[string]bool{}

// init registration is once-before-main, before any worker runs.
func init() {
	seen["boot"] = true
}

func directWrite() {
	ticks = 1  // want "\[globalmut\] write to package-level var sim.ticks"
	ticks++    // want "\[globalmut\] write to package-level var sim.ticks"
	x := ticks // a definition, not a global write
	_ = x
}

func mapWrite(k string) {
	seen[k] = true // want "\[globalmut\] write to package-level var sim.seen"
}

func boundary(name string) {
	reg.Register(name) // want "\[globalmut\] call to reg.Register mutates package-level var reg.byName \(via reg.Register\)"
}

func quietRead() int { return reg.Count() }

func quietLocal() {
	local := 0
	local++
	m := map[string]bool{}
	m["k"] = true
}

// waived retains a reviewed exception at the write site.
func waived() {
	ticks = 0 //xlf:allow-globalmut reset between replay epochs
}
