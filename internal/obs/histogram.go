package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// LatencyBuckets is the default bucket ladder for classify-latency
// histograms, in seconds: 50ns up to ~1.6ms in powers of two, wide enough
// to catch a pipeline that has fallen off its ~200ns/flow budget by four
// orders of magnitude before the tail disappears into +Inf.
var LatencyBuckets = []float64{
	50e-9, 100e-9, 200e-9, 400e-9, 800e-9,
	1.6e-6, 3.2e-6, 6.4e-6, 12.8e-6, 25.6e-6,
	51.2e-6, 102.4e-6, 204.8e-6, 409.6e-6, 1.6384e-3,
}

// BuildBuckets is the bucket ladder for pipeline-compilation durations, in
// seconds: a reused rebuild at paper scale lands in the low milliseconds, a
// cold full-table build in the tens of seconds — both ends need resolution.
var BuildBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 25, 60, 120,
}

// WireBuckets is the bucket ladder for cluster wire-level span durations
// (epoch propagation, shard handoff, report round-trips), in seconds: from
// 100µs (loopback control-plane round-trip) to 30s (a full-table cold
// compile on a slow worker), log-spaced so both a healthy LAN handoff and a
// degraded WAN one keep resolution.
var WireBuckets = []float64{
	100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket concurrent histogram: observations land in
// the first bucket whose upper bound is >= the value (+Inf implicit).
// Observe is lock-free (binary search + two atomic adds + a CAS for the
// sum); for hot paths, NewShard gives a plain-memory shard that merges in
// bulk at a barrier.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given increasing upper bounds.
func NewHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// bucketIndex returns the index of the first bound >= v (len(bounds) for
// +Inf).
func (h *Histogram) bucketIndex(v float64) int {
	return sort.SearchFloat64s(h.bounds, v)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(bitsFloat(old)+v)) {
			return
		}
	}
}

// Shard is a plain-memory accumulation buffer for one goroutine: Observe
// touches no shared state, and Flush folds the shard into the parent with
// a handful of atomic adds. This is how per-worker classify latency stays
// off the hot path and merges at the runtime's existing barriers. A nil
// shard's methods are no-ops, so call sites need no telemetry guards.
type Shard struct {
	h      *Histogram
	counts []uint64
	count  uint64
	sum    float64
}

// NewShard returns an empty shard of h.
func (h *Histogram) NewShard() *Shard {
	return &Shard{h: h, counts: make([]uint64, len(h.bounds)+1)}
}

// Observe records one value into the shard (no shared state touched).
func (s *Shard) Observe(v float64) {
	if s == nil {
		return
	}
	s.counts[s.h.bucketIndex(v)]++
	s.count++
	s.sum += v
}

// Flush merges the shard into its parent histogram and resets it.
func (s *Shard) Flush() {
	if s == nil || s.count == 0 {
		return
	}
	for i, c := range s.counts {
		if c > 0 {
			s.h.counts[i].Add(c)
			s.counts[i] = 0
		}
	}
	s.h.count.Add(s.count)
	s.h.addSum(s.sum)
	s.count, s.sum = 0, 0
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] is the (non-cumulative)
	// count for Bounds[i], with Counts[len(Bounds)] the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the current state. Counts are read bucket-by-bucket, so
// a snapshot taken mid-observation may be off by the in-flight value —
// fine for scrapes, which are sampled anyway.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    bitsFloat(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
