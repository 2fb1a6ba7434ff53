//go:build !race

package posix

// raceEnabled reports whether the race detector is active. See
// race_on_test.go.
const raceEnabled = false
