//go:build race

package core

// raceEnabled reports whether the tests run under the race detector,
// which slows simulation-heavy single-goroutine tests ~20x.
const raceEnabled = true
