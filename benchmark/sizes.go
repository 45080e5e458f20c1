package main

import (
	"time"

	"spoofscope/benchmark/gen"
	"spoofscope/internal/scenario"
)

// Frozen sizes. Every number here was chosen on the two-core recording host
// (see README.md, "How the sizes were chosen") and is part of the benchmark:
// changing one changes what the metrics mean, so a change that claims a gain
// may not touch this file.

// runSeconds is the default measuring time of one run; BENCHMARK.json's
// run_seconds repeats it.
const runSeconds = 10

// queueCapacity is the ingest queue of every single-process workload.
const queueCapacity = 1 << 15

// Trace length knobs: regular sampled flows per ten-minute bucket. Both
// give a trace of about 340K flows: the default scenario over its week, the
// paper-scale scenario over its four weeks.
const (
	defaultPerBucket = 420
	paperPerBucket   = 105
	smokePerBucket   = 150 // the small scenario's day: about 20K flows
)

// liveSchedule is the open-loop schedule of live-tcp, in absolute flows per
// second. On the recording host the socket → decode → shed queue →
// RunParallel(2) path delivers about 2.4M flows/s when the generator, which
// shares the two cores, sends flat out. The base rate is a quarter of that.
// The burst is 96K flows — 40 ms of work at capacity, three times the queue —
// all due in one 1 ms tick, rather than twice capacity for 100 ms: the
// latency a burst causes is its backlog over the capacity, and the backlog
// of a burst at r times capacity is (r − 1)/r of its flows, so a burst barely
// above capacity turns a 1% change in capacity into several percent of tail
// latency, while one that arrives at once tracks capacity one for one. One
// flow in six is in or just behind a burst, so the median is a base-rate
// latency and not one on the burst's edge.
var liveSchedule = gen.Schedule{
	Cycle:     time.Second,
	Burst:     time.Millisecond,
	Tick:      time.Millisecond,
	BaseRate:  600_000,
	BurstRate: 96_000_000,
}

// liveDrainWorkers is RunParallel's consumer count on live-tcp.
const liveDrainWorkers = 2

// Cluster shape: one coordinator, two in-process workers over loopback TCP.
// One feed is one pass of the mixed trace (≈340K flows), not the ≥2M first
// planned: a feed that long, pushed as fast as Ingest accepts it, outruns the
// links, the coordinator falls back to flushing on its 20 ms tick, and how
// that interleaves with the collector differs from feed to feed by a factor
// of two. Short feeds on one long-lived cluster give some twenty samples in a
// run instead of four, and their median is steady.
const (
	clusterWorkers   = 2
	clusterShards    = 8
	clusterFlowBatch = 512
	clusterHeartbeat = 20 * time.Millisecond
	// clusterMisses widens the liveness budget to a second, as
	// BenchmarkClusterTransport does: on two cores a scheduling stall must
	// not read as a dead link and turn the feed into a replay storm.
	clusterMisses = 50
)

// scenarioConfig returns the topology a workload runs on. The topology does
// not depend on the run's seed: the seed draws the traffic, the attack, the
// RIB revisions, so that runs with different seeds measure the same system
// at the same scale.
func scenarioConfig(paper, smoke bool) scenario.Config {
	switch {
	case smoke:
		return scenario.SmallConfig()
	case paper:
		return scenario.PaperScaleConfig()
	default:
		return scenario.DefaultConfig()
	}
}
