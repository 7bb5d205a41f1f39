//go:build race

package ids

func init() { raceEnabled = true }
