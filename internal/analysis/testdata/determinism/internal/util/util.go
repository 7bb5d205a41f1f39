// Package util lives OUTSIDE the deterministic set: its own clock reads
// are legal, but simulation code calling into them is reported at the
// boundary call site.
package util

import (
	"math/rand"
	"time"
)

// Stamp reaches the wall clock two calls deep.
func Stamp() int64 { return now().UnixNano() }

func now() time.Time { return time.Now() }

// Draw pulls from the global generator.
func Draw() int { return rand.Intn(6) }

// Clean is a pure helper; calling it from simulation code is fine.
func Clean(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// WaivedNow is sanctioned measurement code: the waived primitive site
// produces no fact, so callers in deterministic packages stay quiet.
func WaivedNow() time.Time {
	return time.Now() //xlf:allow-wallclock benchmark timing helper
}
