//go:build !race

package astopo

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions skip under -race because its instrumentation allocates.
const raceEnabled = false
