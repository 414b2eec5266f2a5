//go:build race

package hunt

// raceEnabled reports whether the race detector is compiled in; allocation
// regression tests skip under it (instrumentation allocates).
const raceEnabled = true
