//go:build !race

package core

// raceEnabled reports whether the test binary runs under the race detector,
// where exhaustive oracle sweeps are sampled to keep the suite's run time
// bounded.
const raceEnabled = false
