//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions skip under -race because its instrumentation allocates.
const raceEnabled = true
