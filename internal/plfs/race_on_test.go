//go:build race

package plfs

// raceEnabled reports whether the race detector is active. The alloc
// ceilings only hold on plain builds: under it sync.Pool drops items at
// random and instrumentation allocates; see race_off_test.go.
const raceEnabled = true
