//go:build race

package xauth

func init() { raceEnabled = true }
