package core

import (
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// Metric names the runtime registers; exported so benchmarks and smoke
// tests can find them without restating string literals.
const (
	MetricFlowsClassified  = "spoofscope_flows_classified_total"
	MetricClassifyDuration = "spoofscope_classify_duration_seconds"
	MetricDrainBatches     = "spoofscope_drain_batches_total"
	MetricDrainMerges      = "spoofscope_drain_merges_total"
	MetricMergeDuration    = "spoofscope_merge_duration_seconds"
)

// instrument registers the runtime's health counters with t's registry,
// installs the readiness source, and keeps journal references for
// lifecycle events. Every metric that mirrors a Stats() field is
// func-backed over the same atomics and locks Stats() reads, so the scrape
// endpoint and the Go-level snapshot can never disagree. Per-class flow
// counters read the canonical Aggregator tallies under rt.mu — during a
// parallel run they lag by at most the workers' unfolded shards and match
// exactly once drained.
func (rt *Runtime) instrument(t *obs.Telemetry) {
	rt.tel = t
	rt.journal = t.Journal
	rt.queue.journal = t.Journal
	m := t.Metrics
	for c := TrafficClass(0); c < numTrafficClasses; c++ {
		c := c
		label := obs.Label{Name: "class", Value: c.String()}
		m.CounterFunc(MetricFlowsClassified,
			"Flows classified and merged into the canonical aggregate, by traffic class.",
			func() uint64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				return rt.agg.Total[c].Flows
			}, label)
		m.CounterFunc("spoofscope_packets_classified_total",
			"Sampled packets classified and merged into the canonical aggregate, by traffic class.",
			func() uint64 {
				rt.mu.Lock()
				defer rt.mu.Unlock()
				return rt.agg.Total[c].Packets
			}, label)
	}
	m.GaugeFunc("spoofscope_runtime_epoch",
		"Routing-state generation currently classifying (0 = none promoted yet).",
		func() float64 { return float64(rt.currentEpoch()) })
	m.CounterFunc("spoofscope_runtime_swaps_total",
		"Routing-state promotions since start.", rt.swaps.Load)
	m.GaugeFunc("spoofscope_runtime_degraded",
		"1 while the routing feed is known stale (verdicts carry Stale=true).",
		func() float64 {
			if rt.degraded.Load() {
				return 1
			}
			return 0
		})
	m.CounterFunc("spoofscope_runtime_stale_verdicts_total",
		"Verdicts issued while the routing feed was degraded.", rt.stale.Load)
	m.CounterFunc("spoofscope_runtime_processed_total",
		"Flows classified, including those parallel workers have not yet merged.",
		rt.processed.Load)
	m.CounterFunc("spoofscope_runtime_checkpoints_total",
		"Checkpoint snapshots written successfully.",
		func() uint64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.checkpoints
		})
	m.CounterFunc("spoofscope_runtime_checkpoint_errors_total",
		"Checkpoint snapshots that failed to persist.",
		func() uint64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.ckptErrors
		})
	// The merge-barrier stage: how often a drain worker found the aggregate
	// lock held and spilled, and what folding those shards back cost. Below
	// capacity all three stay flat — contention is visible, not inferred.
	m.CounterFunc(MetricDrainBatches,
		"Drained batches, by whether they were aggregated in place or spilled into a worker's private shard because the aggregate lock was held.",
		func() uint64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.inPlace
		}, obs.Label{Name: "path", Value: "inplace"})
	m.CounterFunc(MetricDrainBatches,
		"Drained batches, by whether they were aggregated in place or spilled into a worker's private shard because the aggregate lock was held.",
		rt.spilledBatches.Load, obs.Label{Name: "path", Value: "spilled"})
	m.CounterFunc(MetricDrainMerges,
		"Private shards folded back into the canonical aggregate.",
		func() uint64 {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			return rt.merges
		})
	rt.mergeHist = m.Histogram(MetricMergeDuration,
		"Duration of each fold of a private shard into the canonical aggregate, under the aggregate lock (one sample per merge: merges happen only under contention, at most once per drained batch).",
		obs.LatencyBuckets)
	m.GaugeFunc("spoofscope_queue_depth",
		"Current ingest queue occupancy.",
		func() float64 { return float64(rt.queue.Stats().Depth) })
	m.GaugeFunc("spoofscope_queue_high_watermark_observed",
		"Maximum ingest queue occupancy ever reached.",
		func() float64 { return float64(rt.queue.Stats().HighWatermarkObserved) })
	m.GaugeFunc("spoofscope_queue_shedding",
		"1 while the queue is above the watermark hysteresis band and dropping.",
		func() float64 {
			if rt.queue.Stats().Shedding {
				return 1
			}
			return 0
		})
	m.CounterFunc("spoofscope_queue_ingested_total",
		"Flows offered to the ingest queue.",
		func() uint64 { return rt.queue.Stats().Ingested })
	m.CounterFunc("spoofscope_queue_queued_total",
		"Flows accepted into the ingest queue.",
		func() uint64 { return rt.queue.Stats().Queued })
	m.CounterFunc("spoofscope_queue_shed_total",
		"Flows dropped by the watermark policy or a full queue.",
		func() uint64 { return rt.queue.Stats().Shed })
	rt.classifyHist = m.Histogram(MetricClassifyDuration,
		"Sampled per-flow classification latency (one sample per drained batch: the batch's mean).",
		obs.LatencyBuckets)
	rt.buildHist = m.Histogram(MetricBuildDuration,
		"Pipeline compilation duration per build (initial and rebuilds).",
		obs.BuildBuckets)
	m.GaugeFunc("spoofscope_build_last_seconds",
		"Duration of the most recent pipeline compilation.",
		func() float64 { return time.Duration(rt.lastBuildNs.Load()).Seconds() })
	for r := BuildReuse(0); r < numBuildReuse; r++ {
		r := r
		m.CounterFunc("spoofscope_builds_total",
			"Pipeline compilations recorded, by reuse mode.",
			rt.builds[r].Load, obs.Label{Name: "mode", Value: r.String()})
	}
	t.SetHealth(rt.health)
}

// health derives the /healthz verdict from first-epoch promotion and
// degradation state: unready until a pipeline has been promoted (flows
// queue but nothing classifies), degraded-but-ready while the routing feed
// is down (verdicts flow, marked stale), ok otherwise.
func (rt *Runtime) health() obs.Health {
	switch {
	case rt.currentEpoch() == 0:
		return obs.Health{Ready: false, Status: "unready",
			Detail: "no routing-state epoch promoted yet; flows queue until the first swap"}
	case rt.degraded.Load():
		return obs.Health{Ready: true, Status: "degraded",
			Detail: "routing feed degraded; verdicts are marked stale until the next swap"}
	}
	return obs.Health{Ready: true, Status: "ok"}
}

// classifyBatchTimed times the whole ClassifyBatch call and feeds one
// flow-weighted sample — batch seconds divided by batch size, i.e. the
// batch's mean per-flow latency — into observe (the worker's histogram
// shard) per batch: per-flow-seconds units at two clock reads per batch,
// cheap enough to leave on permanently. A nil-histogram runtime skips the
// clock entirely.
func (rt *Runtime) classifyBatchTimed(p *Pipeline, flows []ipfix.Flow, out []Verdict, observe func(float64)) {
	if rt.classifyHist == nil || len(flows) == 0 {
		p.ClassifyBatch(flows, out)
		return
	}
	t0 := time.Now()
	p.ClassifyBatch(flows, out)
	observe(time.Since(t0).Seconds() / float64(len(flows)))
}
