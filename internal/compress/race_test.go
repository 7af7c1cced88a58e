//go:build race

package compress

func init() { raceEnabled = true }
