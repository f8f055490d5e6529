//go:build !race

package pipeline

// raceEnabled reports whether the test binary was built with the race
// detector, whose instrumentation allocates and would fail the
// allocation gates for reasons unrelated to the code.
const raceEnabled = false
