//go:build !race

package lethe

const raceEnabled = false
