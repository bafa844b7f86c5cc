//go:build race

package server

// raceEnabled reports whether the race detector is on: it instruments
// allocations, so allocation pins skip under it.
const raceEnabled = true
