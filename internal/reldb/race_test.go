//go:build race

package reldb

// raceEnabled reports whether the race detector is on, which adds
// allocations of its own to what the allocation tests count.
const raceEnabled = true
