//go:build race

package xlf

func init() { raceEnabled = true }
