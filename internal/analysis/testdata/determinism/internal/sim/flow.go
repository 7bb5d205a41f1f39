// The call-graph half of the determinism fixture: no primitive below is
// called directly, so every finding comes from reachability through the
// helpers in package util (or from a bare reference to the clock).
package sim

import (
	"time"

	"example.com/m/internal/util"
)

// tick reaches time.Now through util.Stamp → util.now.
func tick() int64 {
	return util.Stamp() // want "\[determinism\] call to util.Stamp reaches wall-clock read time.Now \(via util.Stamp → util.now\)"
}

// roll reaches the global generator one call deep.
func roll() int {
	return util.Draw() // want "\[determinism\] call to util.Draw reaches global math/rand.Intn"
}

// spawned closures are still simulation code: capturing a clock-reading
// helper inside a goroutine body is the same hazard.
func spawned(done chan int64) {
	go func() {
		done <- util.Stamp() // want "\[determinism\] call to util.Stamp reaches wall-clock read time.Now"
	}()
}

// handing the real clock around as a value leaks the moment anything
// invokes it.
func clockValue() func() time.Time {
	return time.Now // want "\[determinism\] reference to wall-clock read time.Now"
}

// pure helpers are fine at any depth.
func quietClean() int { return util.Clean(1, 2) }

// a waived primitive origin produces no fact, so its callers are clean.
func quietWaivedOrigin() time.Time { return util.WaivedNow() }

// the marker on the boundary call site waives that root individually.
func waivedRoot() int64 {
	return util.Stamp() //xlf:allow-wallclock sanctioned measurement
}
