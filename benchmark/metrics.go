package main

// metric is a name the benchmark prints and its unit. BENCHMARK.json lists
// the same names with their direction and bound; a test keeps the two equal.
type metric struct {
	name, unit string
}

// endToEndMetrics are what a user of the system sees, on every workload.
// latency_ms is the latency of the operation that workload's user waits for
// (README.md, "What latency means on each workload").
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"cpu_ns_per_flow", "ns"},
	{"allocs_per_kflow", "count"},
	{"live_heap_mb", "MB"},
	{"latency_ms", "ms"},
	{"delivered_fraction", "ratio"},
}

func endToEnd(o *outcome, setup float64) map[string]float64 {
	delivered := 0.0
	if o.offered > 0 {
		delivered = float64(o.processed) / float64(o.offered)
	}
	return map[string]float64{
		"setup_s":            setup,
		"flows_per_s":        o.cost.flowsPerS(),
		"cpu_ns_per_flow":    o.cost.cpuNsPerFlow(),
		"allocs_per_kflow":   o.cost.allocsPerKflow(),
		"live_heap_mb":       o.liveHeapMB,
		"latency_ms":         o.latencyMs,
		"delivered_fraction": delivered,
	}
}

// perLayerMetrics come from the traced run: counts and timings taken by
// calling each layer's public functions over the workload's own inputs, and
// what the traced loop observed. They have no bound.
var perLayerMetrics = []metric{
	{"ipfix.decode_ns_per_flow", "ns"},
	{"ipfix.decode_allocs_per_kmsg", "count"},
	{"ipfix.decode_mb_per_s", "MB/s"},
	{"ipfix.records_skipped", "count"},

	{"queue.roundtrip_ns_per_flow", "ns"},
	{"queue.depth_p50", "count"},
	{"queue.depth_max", "count"},
	{"queue.ingested", "count"},
	{"queue.shed", "count"},
	{"queue.producer_blocked_share", "ratio"},

	{"classify.ns_per_flow", "ns"},
	{"classify.flows_valid", "count"},
	{"classify.flows_bogon", "count"},
	{"classify.flows_unrouted", "count"},
	{"classify.flows_invalid", "count"},
	{"classify.ingress_switch_share", "ratio"},
	{"netx.flatlpm_lookup_ns", "ns"},
	{"netx.flatlpm_miss_share", "ratio"},
	{"netx.flatlpm_build_ms", "ms"},

	{"aggregate.ns_per_flow", "ns"},
	{"aggregate.warm_ns_per_flow", "ns"},
	{"aggregate.allocs_per_kflow", "count"},
	{"aggregate.merge_ms", "ms"},
	{"aggregate.fanin_keys", "count"},
	{"aggregate.pair_keys", "count"},

	{"checkpoint.encode_ms", "ms"},
	{"checkpoint.decode_ms", "ms"},
	{"checkpoint.bytes", "count"},

	{"runtime.drain_ns_per_flow", "ns"},
	{"runtime.drain_parallel_ns_per_flow", "ns"},
	{"runtime.drain_allocs_per_kflow", "count"},

	{"build.cold_ms", "ms"},
	{"build.reused_closures_ms", "ms"},
	{"build.reused_pipeline_ms", "ms"},
	{"build.alloc_mb", "MB"},
	{"astopo.cone_closures_ms", "ms"},
	{"bgp.load_mrt_ms", "ms"},
	{"bgp.fingerprint_ms", "ms"},

	{"cluster.ingest_call_ns_per_flow", "ns"},
	{"cluster.replayed_flows", "count"},
	{"cluster.reassigns", "count"},
	{"cluster.zombie_reports", "count"},
	{"cluster.short_checkpoints", "count"},
	{"cluster.single_process_ratio", "ratio"},

	{"obs.telemetry_overhead_pct", "%"},

	{"loop.latency_p50_ms", "ms"},
	{"loop.latency_tail_ms", "ms"},
	{"loop.latency_samples", "count"},

	{"ledger.sum_ns_per_flow", "ns"},
	{"ledger.residual_pct", "%"},
	{"gen.offered_flows_per_s", "1/s"},
	{"gen.late_p99_ms", "ms"},
	{"gen.late_outside_burst_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.build_span_share_pct", "%"},
}
