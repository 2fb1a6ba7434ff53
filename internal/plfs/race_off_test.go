//go:build !race

package plfs

// raceEnabled reports whether the race detector is active. See
// race_on_test.go.
const raceEnabled = false
