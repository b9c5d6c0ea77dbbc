//go:build race

package canon

const raceEnabled = true
