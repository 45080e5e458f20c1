//go:build !race

package flowgen

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates, so zero-alloc tests only assert without it.
const raceEnabled = false
