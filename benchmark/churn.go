package main

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"time"

	"spoofscope/benchmark/gen"
	"spoofscope/benchmark/trace"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
)

// runChurn applies the RIB revision cycle to one long-lived runtime with
// RebuildAndSwap while a closed-loop replay of the trace keeps its drain
// busy. The revisions are verdict-neutral for the trace (set-up checks it),
// so what the drain counted can be checked although no two runs swap at the
// same flow: after n whole passes the per-class totals must be n times the
// reference's.
func runChurn(in *inputs, d time.Duration, rec *trace.Recorder) *outcome {
	o := &outcome{}
	base := heapAfterGC()
	rt, err := core.NewRuntime(core.RuntimeConfig{
		Pipeline: in.pipeline, Start: in.start, Bucket: in.bucket,
		Queue: core.QueueConfig{Capacity: queueCapacity},
	})
	if err != nil {
		o.fail("new runtime: %v", err)
		return o
	}
	drained := make(chan error, 1)
	go func() { drained <- rt.Run(nil, nil) }()

	// The replay stops at the end of the pass during which stop is set.
	var stop atomic.Bool
	replayed := make(chan error, 1)
	passes := 0
	go func() {
		src := bytes.NewReader(in.wire.Bytes)
		fr := ipfix.NewFileReader(src)
		for !stop.Load() {
			src.Reset(in.wire.Bytes)
			fr.Reset(src)
			if err := fr.ForEachBatch(rt.IngestBatchWait); err != nil {
				replayed <- err
				return
			}
			passes++
		}
		replayed <- nil
	}()

	// One timed region per revision cycle: what the drain got through while
	// the cycle's ten rebuilds ran beside it.
	byTier := make(map[string][]float64)
	rebuilds := 0
	from := readUsage()
	begin, done := from.wall, uint64(0)
	for id := int64(1); id == 1 || time.Since(begin) < d; id++ {
		for _, rev := range in.cycle {
			span := rec.Begin("rebuild", id, -1)
			call := rec.Begin("core.rebuild_and_swap", id, span)
			t0 := time.Now()
			_, stats, err := rt.RebuildAndSwap(rev.RIB, in.members, in.opts)
			took := time.Since(t0)
			rec.End(call)
			rec.End(span)
			rebuilds++
			o.attempted++
			switch {
			case err != nil:
				o.fail("rebuild %d: %v", rebuilds, err)
			case stats.Reuse.String() != rev.Tier:
				o.fail("rebuild %d: tier %s, want %s", rebuilds, stats.Reuse, rev.Tier)
			default:
				byTier[rev.Tier] = append(byTier[rev.Tier], ms(took))
			}
		}
		to := readUsage()
		processed := rt.Stats().Processed
		o.cost.add(from, to, processed-done)
		from, done = to, processed
	}

	stop.Store(true)
	if err := <-replayed; err != nil {
		o.fail("replay: %v", err)
	}
	rt.Close()
	if err := <-drained; err != nil {
		o.fail("drain: %v", err)
	}

	// The common revision and the expensive one: by construction the median
	// and the 90th percentile of all rebuild times in a cycle (two resends,
	// six announcement-only deltas, two path changes). The common one is
	// gated; each is a fixed piece of work.
	o.latency = dist{n: rebuilds, p50: median(byTier[gen.TierReusedClosures]), tail: median(byTier[gen.TierCold]), tailQ: 0.9}
	o.latencyMs = lowerQuartile(byTier[gen.TierReusedClosures])

	st := rt.Stats()
	o.queue = st.Queue
	want := uint64(passes) * uint64(in.wire.Flows)
	o.offered, o.processed, o.shed = want, st.Processed, st.Queue.Shed
	o.attempted += int64(passes)
	if st.Processed != want || st.Queue.Shed != 0 {
		o.fail("%d passes offered %d flows: %d processed, %d shed", passes, want, st.Processed, st.Queue.Shed)
	}
	for c, got := range rt.ClassTotals() {
		ref := in.refTotals[c]
		n := uint64(passes)
		if got != (core.Counter{Flows: n * ref.Flows, Packets: n * ref.Packets, Bytes: n * ref.Bytes}) {
			o.fail("class %s after %d passes: %+v, reference for one pass %+v", core.TrafficClass(c), passes, got, ref)
		}
	}
	if after := heapAfterGC(); after > base {
		o.liveHeapMB = heapMB(after - base)
	}
	// Neither the runtime nor the inputs may die before the reading above:
	// the live heap is what the run leaves on top of its inputs.
	runtime.KeepAlive(rt)
	runtime.KeepAlive(in)
	return o
}
