//go:build race

package montecarlo

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
