//go:build race

package lethe

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so allocation counts are not steady.
const raceEnabled = true
