//go:build !race

package reldb

const raceEnabled = false
