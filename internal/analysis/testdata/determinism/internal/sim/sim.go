// Package sim is a determinism fixture: the test covers this package, so
// wall-clock reads and global math/rand calls are findings unless waived.
package sim

import (
	"math/rand"
	"time"
)

var boot = time.Now() // want "\[determinism\] wall-clock read time.Now"

func init() {
	_ = time.Now() // want "\[determinism\] wall-clock read time.Now"
}

// Durations and seeded generators are fine; only wall-clock reads and the
// global generator are banned.
func ok() {
	rng := rand.New(rand.NewSource(1))
	_ = rng.Intn(3)
	_ = 5 * time.Second
}

func bad(t0 time.Time) {
	_ = time.Now()                     // want "\[determinism\] wall-clock read time.Now"
	_ = time.Since(t0)                 // want "\[determinism\] wall-clock read time.Since"
	_ = rand.Intn(5)                   // want "\[determinism\] global math/rand.Intn"
	_ = rand.Float64()                 // want "\[determinism\] global math/rand.Float64"
	rand.Shuffle(2, func(i, j int) {}) // want "\[determinism\] global math/rand.Shuffle"
}

func waivedInline() time.Time {
	return time.Now() //xlf:allow-wallclock sanctioned benchmark timing
}

func waivedAbove() time.Time {
	//xlf:allow-wallclock sanctioned benchmark timing
	return time.Now()
}

// waivedByDoc times a measurement section.
//
//xlf:allow-wallclock the whole function is measurement code
func waivedByDoc(t0 time.Time) time.Duration {
	return time.Since(t0)
}

// proseOnly names the waiver mid-sentence (see //xlf:allow-wallclock), as
// exp.WallClock's doc does; only a comment that starts with the directive
// waives, so the read below still fires.
func proseOnly() time.Time {
	return time.Now() // want "\[determinism\] wall-clock read time.Now"
}
