package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"spoofscope/benchmark/gen"
	"spoofscope/benchmark/trace"
	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/netx"
	"spoofscope/internal/obs"
)

// traced is the --trace 1 run. It measures the workload twice, each time for
// three tenths of d — first with tracing off, then with every harness call
// wrapped in a span — so that the tracing overhead is the difference between
// two runs of the same process on the same inputs. The rest of d goes to the
// layer ledger: each layer's public functions timed on their own over the
// workload's inputs.
func traced(w *workload, in *inputs, d time.Duration, opt options) (*outcome, map[string]float64, error) {
	// The ledger needs the routing view as MRT and the decoded trace; the
	// measured loops need neither on the heap (see release).
	var mrt bytes.Buffer
	if err := in.scen.WriteMRT(&mrt); err != nil {
		return nil, nil, err
	}
	if !w.feeds {
		in.release()
	}
	share := d * 3 / 10
	plain := w.run(in, share, nil)
	rec := trace.NewRecorder()
	o := w.run(in, share, rec)
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.errs = append(plain.errs, o.errs...)

	v := make(map[string]float64, len(perLayerMetrics))
	reps := 3
	if d < 2*time.Second {
		reps = 1
	}
	if in.flows == nil {
		var err error
		if in.flows, err = in.wire.Decode(); err != nil {
			return nil, nil, err
		}
	}
	if err := ledger(v, in, mrt.Bytes(), opt.seed, reps); err != nil {
		return nil, nil, fmt.Errorf("%s: layer ledger: %w", w.name, err)
	}

	// What the traced loop observed.
	depths := sortedCopy(o.depths)
	v["queue.depth_p50"] = quantile(depths, 0.5)
	v["queue.depth_max"] = float64(o.queue.HighWatermarkObserved)
	v["queue.ingested"] = float64(o.queue.Ingested)
	v["queue.shed"] = float64(o.queue.Shed)
	v["queue.producer_blocked_share"] = o.blocked.Seconds() / o.cost.wall.Seconds()
	v["ipfix.records_skipped"] += float64(o.skipped)
	v["loop.latency_p50_ms"] = o.latency.p50
	v["loop.latency_tail_ms"] = o.latency.tail
	v["loop.latency_samples"] = float64(o.latency.n)
	v["gen.offered_flows_per_s"] = o.offeredRate
	v["gen.late_p99_ms"] = quantile(sortedCopy(o.lateMs), 0.99)
	v["gen.late_outside_burst_ms"] = o.lateOutBurst
	if c := o.cluster; c.fed > 0 {
		v["cluster.ingest_call_ns_per_flow"] = float64(c.ingestCall) / float64(c.fed)
		v["cluster.replayed_flows"] = float64(c.replayed)
		v["cluster.reassigns"] = float64(c.reassigns)
		v["cluster.zombie_reports"] = float64(c.zombies)
		v["cluster.short_checkpoints"] = float64(c.short)
		// Base: the same trace replayed through one process's runtime, the
		// replay-mixed path, measured here so both sides share a run.
		single := runReplay(in, share/3, nil)
		o.attempted += single.attempted
		o.failed += single.failed
		o.errs = append(o.errs, single.errs...)
		v["cluster.single_process_ratio"] = o.cost.flowsPerS() / single.cost.flowsPerS()
	}

	// Reconciliation: do the stage lines add up to the end-to-end cost?
	sum := v["ipfix.decode_ns_per_flow"] + v["queue.roundtrip_ns_per_flow"] + v["classify.ns_per_flow"] + v["aggregate.ns_per_flow"]
	cpu := plain.cost.cpuNsPerFlow()
	v["ledger.sum_ns_per_flow"] = sum
	v["ledger.residual_pct"] = 100 * (cpu - sum) / cpu
	v["trace.overhead_pct"] = 100 * (o.cost.cpuNsPerFlow()/cpu - 1)

	spans := rec.Spans()
	totals := trace.SelfTimes(spans)
	var roots int64
	for _, s := range spans {
		if s.Parent < 0 {
			roots += s.End - s.Start
		}
	}
	if roots > 0 {
		v["trace.build_span_share_pct"] = 100 * float64(totals["core.rebuild_and_swap"].Duration) / float64(roots)
	}
	path := filepath.Join(opt.out, "trace-"+w.name+".json")
	if err := rec.WriteFile(path, w.name); err != nil {
		return nil, nil, err
	}
	fmt.Printf("ledger: decode %.1f + queue %.1f + classify %.1f + aggregate %.1f = %.1f ns/flow of %.1f ns/flow CPU untraced (%.1f%% unexplained); spans in %s\n",
		v["ipfix.decode_ns_per_flow"], v["queue.roundtrip_ns_per_flow"], v["classify.ns_per_flow"], v["aggregate.ns_per_flow"],
		sum, cpu, v["ledger.residual_pct"], path)
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := totals[name]
		fmt.Printf("  span %-28s %6d calls %12.3f ms total %12.3f ms self\n", name, t.Calls, float64(t.Duration)/1e6, float64(t.Self)/1e6)
	}
	return o, v, nil
}

// timeIt runs fn reps times and returns the median duration and the median
// number of heap objects it allocated.
func timeIt(reps int, fn func()) (time.Duration, float64) {
	var walls, allocs []float64
	for i := 0; i < reps; i++ {
		from := readUsage()
		fn()
		to := readUsage()
		walls = append(walls, float64(to.wall.Sub(from.wall)))
		allocs = append(allocs, float64(to.mallocs-from.mallocs))
	}
	return time.Duration(median(walls)), median(allocs)
}

// ledger times each layer on its own, over the workload's inputs, through
// the layer's public functions.
func ledger(v map[string]float64, in *inputs, mrt []byte, seed int64, reps int) error {
	n := len(in.flows)
	w := in.wire
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// ipfix: decode-into-batch, the collectors' per-message call.
	dec := ipfix.NewDecoder()
	scratch := make([]ipfix.Flow, 0, gen.RecordsPerMessage)
	decodeAll := func() {
		for i := 0; i < w.Messages(); i++ {
			var err error
			scratch, err = dec.AppendFlows(w.Bytes[w.Off[i]:w.Off[i+1]], scratch[:0])
			keep(err)
		}
	}
	_, err := dec.AppendFlows(w.Bytes[:w.Off[0]], scratch)
	keep(err)
	decodeAll()
	wall, allocs := timeIt(reps, decodeAll)
	v["ipfix.decode_ns_per_flow"] = perFlowNs(wall, n)
	v["ipfix.decode_allocs_per_kmsg"] = allocs / float64(w.Messages()) * 1000
	v["ipfix.decode_mb_per_s"] = float64(len(w.Bytes)) / 1e6 / wall.Seconds()
	v["ipfix.records_skipped"] = float64(dec.RecordsSkipped)

	// core/queue: a message in, a drain batch out, one goroutine.
	q := core.NewIngestQueue(core.QueueConfig{Capacity: queueCapacity})
	batch := make([]ipfix.Flow, core.ClassifyBatchSize)
	wall, _ = timeIt(reps, func() {
		for lo := 0; lo < n; lo += gen.RecordsPerMessage {
			q.PushBatchWait(in.flows[lo:min(lo+gen.RecordsPerMessage, n)])
			if q.Depth() >= len(batch) {
				q.TryPopBatch(batch)
			}
		}
		for q.TryPopBatch(batch) > 0 {
		}
	})
	v["queue.roundtrip_ns_per_flow"] = perFlowNs(wall, n)

	// core/pipeline: the batch classifier the drains call.
	verdicts := make([]core.Verdict, n)
	chunks := func(fn func(lo, hi int)) {
		for lo := 0; lo < n; lo += core.ClassifyBatchSize {
			fn(lo, min(lo+core.ClassifyBatchSize, n))
		}
	}
	classify := func() {
		chunks(func(lo, hi int) { in.pipeline.ClassifyBatch(in.flows[lo:hi], verdicts[lo:hi]) })
	}
	classify()
	wall, _ = timeIt(reps, classify)
	v["classify.ns_per_flow"] = perFlowNs(wall, n)
	switches := 0
	for i, vd := range verdicts {
		switch vd.Class {
		case core.ClassValid:
			v["classify.flows_valid"]++
		case core.ClassBogon:
			v["classify.flows_bogon"]++
		case core.ClassUnrouted:
			v["classify.flows_unrouted"]++
		case core.ClassInvalid:
			v["classify.flows_invalid"]++
		}
		if i > 0 && in.flows[i].Ingress != in.flows[i-1].Ingress {
			switches++
		}
	}
	v["classify.ingress_switch_share"] = float64(switches) / float64(n-1)

	// netx: the flat LPM over the table's origin assignments.
	prefixes, origins := in.rib.OriginAssignments()
	values := make([]uint32, len(origins))
	for i, as := range origins {
		values[i] = uint32(as)
	}
	var lpm *netx.FlatLPM
	wall, _ = timeIt(reps, func() { lpm = netx.BuildFlatLPM(prefixes, values) })
	v["netx.flatlpm_build_ms"] = ms(wall)
	misses := 0
	wall, _ = timeIt(reps, func() {
		misses = 0
		for i := range in.flows {
			if _, ok := lpm.Lookup(in.flows[i].SrcAddr); !ok {
				misses++
			}
		}
	})
	v["netx.flatlpm_lookup_ns"] = perFlowNs(wall, n)
	v["netx.flatlpm_miss_share"] = float64(misses) / float64(n)

	// core/aggregate: the same verdicts into a fresh aggregator (inserts),
	// then once more into the same one (increments only).
	var agg *core.Aggregator
	add := func() {
		chunks(func(lo, hi int) { agg.AddBatch(in.flows[lo:hi], verdicts[lo:hi]) })
	}
	var fresh, warm, freshAllocs, merge []float64
	for i := 0; i < reps; i++ {
		agg = in.newAggregator()
		d, a := timeIt(1, add)
		fresh, freshAllocs = append(fresh, float64(d)), append(freshAllocs, a)
		if i == 0 {
			for _, m := range agg.FanIn {
				v["aggregate.fanin_keys"] += float64(len(m))
			}
			for _, pairs := range []map[netx.Addr]map[netx.Addr]uint64{agg.TriggerPairs, agg.ResponsePairs} {
				for _, m := range pairs {
					v["aggregate.pair_keys"] += float64(len(m))
				}
			}
		}
		d, _ = timeIt(1, add)
		warm = append(warm, float64(d))
		into := in.newAggregator()
		d, _ = timeIt(1, func() { into.Merge(agg) })
		merge = append(merge, float64(d))
	}
	v["aggregate.ns_per_flow"] = median(fresh) / float64(n)
	v["aggregate.warm_ns_per_flow"] = median(warm) / float64(n)
	v["aggregate.allocs_per_kflow"] = median(freshAllocs) / float64(n) * 1000
	v["aggregate.merge_ms"] = median(merge) / 1e6

	// core/checkpoint: the canonical codec over one pass's state.
	agg = in.newAggregator()
	add()
	cp := &core.Checkpoint{Ingested: uint64(n), Queued: uint64(n), Processed: uint64(n), Epoch: 1, Swaps: 1, Agg: agg}
	var buf bytes.Buffer
	wall, _ = timeIt(reps, func() {
		buf.Reset()
		keep(core.EncodeCheckpoint(&buf, cp))
	})
	v["checkpoint.encode_ms"] = ms(wall)
	v["checkpoint.bytes"] = float64(buf.Len())
	if !bytes.Equal(buf.Bytes(), in.ref) {
		keep(fmt.Errorf("batch classify and aggregate disagree with the reference checkpoint"))
	}
	wall, _ = timeIt(reps, func() {
		_, err := core.DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
		keep(err)
	})
	v["checkpoint.decode_ms"] = ms(wall)

	// core/runtime: the drain alone, from a queue filled beforehand.
	drain := func(parallel bool) (time.Duration, float64) {
		var walls, allocs []float64
		for i := 0; i < reps; i++ {
			rt, err := core.NewRuntime(core.RuntimeConfig{
				Pipeline: in.pipeline, Start: in.start, Bucket: in.bucket,
				Queue: core.QueueConfig{Capacity: n + 1, HighWatermark: n + 1},
			})
			if err != nil {
				keep(err)
				return 0, 0
			}
			for lo := 0; lo < n; lo += gen.RecordsPerMessage {
				rt.IngestBatch(in.flows[lo:min(lo+gen.RecordsPerMessage, n)])
			}
			rt.Close()
			d, a := timeIt(1, func() {
				if parallel {
					keep(rt.RunParallel(nil, liveDrainWorkers, nil))
				} else {
					keep(rt.Run(nil, nil))
				}
			})
			if got := rt.Stats().Processed; got != uint64(n) {
				keep(fmt.Errorf("drain processed %d of %d flows", got, n))
			}
			walls, allocs = append(walls, float64(d)), append(allocs, a)
		}
		return time.Duration(median(walls)), median(allocs)
	}
	wall, allocs = drain(false)
	v["runtime.drain_ns_per_flow"] = perFlowNs(wall, n)
	v["runtime.drain_allocs_per_kflow"] = allocs / float64(n) * 1000
	wall, _ = drain(true)
	v["runtime.drain_parallel_ns_per_flow"] = perFlowNs(wall, n)

	// core/build, astopo, bgp: the three rebuild tiers, unloaded.
	cycle := in.cycle
	if cycle == nil {
		cycle = gen.RevisionCycle(in.rib, gen.Sources(in.flows), seed, 0)
	}
	var cold, closures, whole, coldBytes []float64
	for i := 0; i < reps; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p0, st, err := core.RebuildPipeline(nil, cycle[0].RIB, in.members, in.opts)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		cold, coldBytes = append(cold, ms(st.Duration)), append(coldBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		p1, st, err := core.RebuildPipeline(p0, cycle[1].RIB, in.members, in.opts)
		if err != nil {
			return err
		}
		if st.Reuse != core.BuildReusedClosures {
			keep(fmt.Errorf("announcement-only delta rebuilt as %s", st.Reuse))
		}
		closures = append(closures, ms(st.Duration))
		_, st, err = core.RebuildPipeline(p1, cycle[1].RIB, in.members, in.opts)
		if err != nil {
			return err
		}
		if st.Reuse != core.BuildReusedPipeline {
			keep(fmt.Errorf("identical resend rebuilt as %s", st.Reuse))
		}
		whole = append(whole, ms(st.Duration))
	}
	v["build.cold_ms"] = median(cold)
	v["build.reused_closures_ms"] = median(closures)
	v["build.reused_pipeline_ms"] = median(whole)
	v["build.alloc_mb"] = median(coldBytes) / (1 << 20)
	wall, _ = timeIt(reps, func() { in.pipeline.Graph().ConeClosures(in.opts.Orgs, runtime.GOMAXPROCS(0)) })
	v["astopo.cone_closures_ms"] = ms(wall)
	wall, _ = timeIt(reps, func() { in.rib.Fingerprint() })
	v["bgp.fingerprint_ms"] = ms(wall)
	wall, _ = timeIt(1, func() { keep(bgp.NewRIB().LoadMRT(bytes.NewReader(mrt))) })
	v["bgp.load_mrt_ms"] = ms(wall)

	// obs: the replay path with a live Telemetry attached, against without,
	// in alternating passes on one reader.
	r := newReplayer(in)
	var with, without []float64
	sink := &outcome{}
	for i := 0; i < 2*reps; i++ {
		a, _, _ := r.pass(sink, nil, int64(i), nil, false)
		b, _, _ := r.pass(sink, nil, int64(i), obs.NewTelemetry(), false)
		if i > 0 { // the first pair warms the reader
			without, with = append(without, float64(a)), append(with, float64(b))
		}
	}
	if sink.failed > 0 {
		keep(fmt.Errorf("telemetry pairs: %v", sink.errs))
	}
	v["obs.telemetry_overhead_pct"] = 100 * (median(with)/median(without) - 1)
	return firstErr
}
