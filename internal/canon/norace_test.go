//go:build !race

package canon

const raceEnabled = false
