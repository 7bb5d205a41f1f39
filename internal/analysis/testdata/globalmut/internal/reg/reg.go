// Package reg is a registry OUTSIDE the scheduler roots; its own
// writes are legal here, but reaching them from a root package is the
// shared-state hazard globalmut reports at the boundary.
package reg

var count int

var byName = map[string]int{}

// Register bumps package-level state.
func Register(name string) {
	count++
	byName[name] = count
}

// Count reads without writing; calling it from a root is fine.
func Count() int { return count }
