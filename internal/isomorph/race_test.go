//go:build race

package isomorph

const raceEnabled = true
