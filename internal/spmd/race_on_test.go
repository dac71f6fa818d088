//go:build race

package spmd

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
