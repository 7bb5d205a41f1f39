// Package sim is the maporder fixture: map iteration order escaping
// into returns, sinks, and unsorted appends — the System.attest bug
// class — against the quiet shapes (sorted afterwards, guarded search,
// waived loops).
package sim

import (
	"fmt"
	"sort"
)

type row struct {
	ID string
	N  int
}

// unsortedAppend is the attest bug: keys collected in iteration order
// and never laundered.
func unsortedAppend(m map[string]int) []string {
	var ids []string
	for id := range m {
		ids = append(ids, id) // want "\[maporder\] map iteration order flows into append to ids through id with no sort after the loop"
	}
	return ids
}

// sortedAppend is the attest fix: the sort after the loop launders the
// order.
func sortedAppend(m map[string]int) []string {
	var ids []string
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// wrapperSorted launders through a module helper that reaches the sort
// package — the call graph, not the call site, proves it sorts.
func wrapperSorted(m map[string]int) []string {
	var ids []string
	for id := range m {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

func sortIDs(s []string) { sort.Strings(s) }

// bareReturn picks an arbitrary element.
func bareReturn(m map[string]int) string {
	for k := range m {
		return k // want "\[maporder\] map iteration order flows into a return value through k"
	}
	return ""
}

// guardedSearch is a lookup, not an arbitrary pick.
func guardedSearch(m map[string]int, want int) string {
	for k, v := range m {
		if v == want {
			return k
		}
	}
	return ""
}

// guardInit emits through a sink in an if statement's init, which runs
// on every iteration: the guard around the return does not cover it.
func guardInit(m map[string]int) {
	for k := range m {
		if _, err := fmt.Println(k); err != nil { // want "\[maporder\] map iteration order flows into sink fmt.Println through k"
			return
		}
	}
}

// guardedInitSearch binds in the guard's init and returns only under the
// guard: still a lookup.
func guardedInitSearch(m map[string]int, want int) string {
	for k, v := range m {
		if n := v * 2; n == want {
			return k
		}
	}
	return ""
}

// sinkCall emits values in iteration order through a configured sink.
func sinkCall(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "\[maporder\] map iteration order flows into sink fmt.Println through k"
	}
}

// compositeArg is the attest shape: the key rides into the sink inside
// a struct literal.
func compositeArg(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%v\n", row{ID: k, N: v}) // want "\[maporder\] map iteration order flows into sink fmt.Printf through k"
	}
}

// waivedLoop carries the marker on the range statement, covering the
// whole body.
func waivedLoop(m map[string]int) []string {
	var ids []string
	for id := range m { //xlf:allow-maporder reviewed: order feeds an order-insensitive set
		ids = append(ids, id)
	}
	return ids
}

// keyless observes nothing.
func keyless(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}
