//go:build race

package linkreversal_test

// raceEnabled reports whether the race detector is compiled in; allocation
// regression tests skip under it (instrumentation allocates).
const raceEnabled = true
