package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailQuantile is the percentile reported beside a median: the highest one,
// up to p99, that still has ten samples beyond it. A short run cannot give
// ten, so below forty samples it keeps a quarter of them beyond instead.
func tailQuantile(n int) float64 {
	beyond := 10
	if n/4 < beyond {
		beyond = n / 4
	}
	if beyond < 1 {
		beyond = 1
	}
	q := 1 - float64(beyond)/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// dist summarises timing samples as the harness reports them.
type dist struct {
	n         int
	p50, tail float64
	tailQ     float64
}

func summarise(xs []float64) dist {
	s := sortedCopy(xs)
	q := tailQuantile(len(s))
	return dist{n: len(s), p50: quantile(s, 0.5), tail: quantile(s, q), tailQ: q}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// lowerQuartile and upperQuartile are the harness's steady statistics for
// repeated measurements of one fixed piece of work. What disturbs such a
// measurement on a shared host — a neighbour on the core, a collection, a
// late wake-up — only ever makes it slower, and it does so to a scattering
// of samples, not to a stretch of them. So the quartile on the fast side
// (the lower one of times, the upper one of rates) moves when the program
// changes, as every quantile does, and keeps still when up to three
// quarters of a run's samples were disturbed. Over ten runs with different
// seeds it spread half to two thirds as much as the median (README.md, "The
// statistic").
func lowerQuartile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.25) }
func upperQuartile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.75) }

// usage is a reading of the process's clocks and allocation counter.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system
	mallocs uint64
}

// readClocks reads the clocks alone: it does not stop the world, so it can
// be called in the middle of a measurement.
func readClocks() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF fails only for a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := readClocks()
	u.mallocs = m.Mallocs
	return u
}

// cost is what a run's timed regions used: one sample per region (a pass, a
// feed, a cycle), each divided by the flows the region processed.
type cost struct {
	wall   time.Duration // summed over regions
	rate   []float64     // flows per wall second
	cpuNs  []float64     // process user + system time per flow
	allocs []float64     // heap objects per thousand flows
}

// addClocks records a region measured with readClocks.
func (c *cost) addClocks(from, to usage, flows uint64) {
	wall := to.wall.Sub(from.wall)
	c.wall += wall
	c.rate = append(c.rate, float64(flows)/wall.Seconds())
	c.cpuNs = append(c.cpuNs, float64(to.cpu-from.cpu)/float64(flows))
}

// addAllocs records a region's allocations alone.
func (c *cost) addAllocs(from, to usage, flows uint64) {
	c.allocs = append(c.allocs, float64(to.mallocs-from.mallocs)/float64(flows)*1000)
}

// add records a region measured with readUsage.
func (c *cost) add(from, to usage, flows uint64) {
	c.addClocks(from, to, flows)
	c.addAllocs(from, to, flows)
}

// The allocation count of a region is no timing and is disturbed both ways
// (a collection that runs or does not), so it keeps the median.
func (c cost) flowsPerS() float64              { return upperQuartile(c.rate) }
func (c cost) cpuNsPerFlow() float64           { return lowerQuartile(c.cpuNs) }
func (c cost) allocsPerKflow() float64         { return median(c.allocs) }
func heapMB(bytes uint64) float64              { return float64(bytes) / (1 << 20) }
func perFlowNs(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// heapReadings is how many forced collections heapAfterGC reads after.
const heapReadings = 5

// heapAfterGC is the live heap: the least that several forced collections in
// a row leave allocated. Several, because a sync.Pool's contents survive one
// collection in its victim cache; the least, because the live state is a
// floor and what goroutines in the background allocate between a collection
// and the reading only adds to it. On cluster-2w the coordinator asks for
// shard reports every eighth heartbeat and a reading that meets one is fifty
// megabytes higher.
func heapAfterGC() uint64 {
	least := ^uint64(0)
	var m runtime.MemStats
	for i := 0; i < heapReadings; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		least = min(least, m.HeapAlloc)
	}
	return least
}
