//go:build race

package posix

// raceEnabled reports whether the race detector is active. The alloc
// comparisons only hold on plain builds: under it instrumentation
// allocates, by a count that can differ between two listings; see
// race_off_test.go.
const raceEnabled = true
