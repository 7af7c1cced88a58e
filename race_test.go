//go:build race

package selforg_test

func init() { raceEnabled = true }
