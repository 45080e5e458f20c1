package main

import (
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"spoofscope/benchmark/trace"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
)

// runLive is the open-loop workload. One generator goroutine writes the
// mixed trace's pre-encoded messages to one loopback TCP connection on
// liveSchedule, whether or not the system keeps up; ipfix.ListenTCP decodes
// them and offers each message to the runtime's shedding queue; RunParallel
// drains it with an observer. A message's latency runs from when it was due
// to when the observer has seen as many flows as were queued up to and
// including that message. The observer sees flows in worker-completion
// order, so a message can be stamped up to two drain batches (2×256 flows)
// early or late; at the rates here that is under a millisecond.
//
// Loopback, not a real link: the numbers include the kernel's socket path
// but no wire time and no loss.
func runLive(in *inputs, d time.Duration, rec *trace.Recorder) *outcome {
	o := &outcome{}
	sched := liveSchedule
	cycles := int(d / sched.Cycle)
	if cycles < 1 {
		cycles = 1
	}
	end := time.Duration(cycles) * sched.Cycle

	// The send plan: global message k is image message k mod Messages().
	w := in.wire
	var due []time.Duration
	var flowsBefore int64
	for k := 0; ; k++ {
		at := sched.Due(flowsBefore)
		if at >= end {
			break
		}
		due = append(due, at)
		flowsBefore += int64(w.FlowsIn(k % w.Messages()))
	}
	offered := uint64(flowsBefore)
	total := len(due)

	base := heapAfterGC()
	rt, err := core.NewRuntime(core.RuntimeConfig{
		Pipeline: in.pipeline, Start: in.start, Bucket: in.bucket,
		Queue: core.QueueConfig{Capacity: queueCapacity},
	})
	if err != nil {
		o.fail("new runtime: %v", err)
		return o
	}
	col, err := ipfix.ListenTCP("127.0.0.1:0")
	if err != nil {
		o.fail("listen: %v", err)
		return o
	}

	// Collector side: one connection, so the k-th batch delivered is global
	// message k. queuedThrough[k] is how many flows the queue had accepted
	// once message k had been offered; published says how far it is filled.
	queuedThrough := make([]uint64, total)
	var published atomic.Int64
	var delivered int
	var cumQueued uint64
	served := make(chan error, 1)
	go func() {
		served <- col.ServeBatch(func(batch []ipfix.Flow) bool {
			if delivered < total {
				cumQueued += uint64(rt.IngestBatch(batch))
				queuedThrough[delivered] = cumQueued
				if rec != nil && delivered%depthEvery == 0 {
					o.depths = append(o.depths, float64(rt.Stats().Queue.Depth))
				}
			}
			delivered++
			published.Store(int64(delivered))
			return true
		})
	}()

	// Drain side. latency[k] < 0 marks a message none of whose flows were
	// queued: it was shed whole and has no verdict to wait for.
	latency := make([]time.Duration, total)
	var t0 time.Time
	var seen, threshold uint64
	next := 0
	observe := func(ipfix.Flow, core.LiveVerdict) bool {
		seen++
		if seen < threshold {
			return true
		}
		now := time.Since(t0)
		pub := int(published.Load())
		for next < pub && queuedThrough[next] <= seen {
			latency[next] = now - due[next]
			if (next == 0 && queuedThrough[0] == 0) || (next > 0 && queuedThrough[next] == queuedThrough[next-1]) {
				latency[next] = -1
			}
			next++
		}
		threshold = seen + 1
		if next < pub {
			threshold = queuedThrough[next]
		}
		return true
	}
	drained := make(chan error, 1)
	spanStart := rec.Now()
	span := rec.Begin("live.run", 1, -1)
	drainSpan := rec.Begin("runtime.drain", 1, span)
	from := readUsage()
	t0 = from.wall
	go func() {
		err := rt.RunParallel(nil, liveDrainWorkers, observe)
		rec.End(drainSpan)
		drained <- err
	}()

	// Generator: this goroutine. Everything due is sent in one write (the
	// image is contiguous), then it sleeps until the next message is due.
	conn, err := net.Dial("tcp", col.Addr().String())
	if err == nil {
		_, err = conn.Write(w.Bytes[:w.Off[0]])
	}
	// At the first message of each cycle the generator also reads the clocks
	// and the processed count, so that CPU per flow has one sample a cycle.
	late := make([]time.Duration, total)
	var writing time.Duration
	marks, processedAt := []usage{from}, []uint64{0}
	for k := 0; k < total && err == nil; {
		now := time.Since(t0)
		if wait := due[k] - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		if int(due[k]/sched.Cycle) == len(marks) {
			marks, processedAt = append(marks, readClocks()), append(processedAt, rt.Stats().Processed)
		}
		j := k
		for j < total && due[j] <= now && j/w.Messages() == k/w.Messages() {
			late[j] = now - due[j]
			j++
		}
		w0 := time.Now()
		_, err = conn.Write(w.Bytes[w.Off[k%w.Messages()]:w.Off[(j-1)%w.Messages()+1]])
		writing += time.Since(w0)
		k = j
	}
	if err != nil {
		o.fail("generator: %v", err)
	}
	sentIn := time.Since(t0)
	if conn != nil {
		conn.Close()
	}
	if err := col.Shutdown(); err != nil {
		o.fail("collector shutdown: %v", err)
	}
	if err := <-served; err != nil {
		o.fail("collector: %v", err)
	}
	rt.Close()
	if err := <-drained; err != nil {
		o.fail("drain: %v", err)
	}
	rec.Add("gen.write", 1, span, spanStart, writing)
	rec.End(span)
	to := readUsage()

	st := rt.Stats()
	o.queue = st.Queue
	o.offered, o.processed, o.shed = offered, st.Processed, st.Queue.Shed
	marks, processedAt = append(marks, to), append(processedAt, st.Processed)
	for c := 1; c < len(marks); c++ {
		o.cost.addClocks(marks[c-1], marks[c], processedAt[c]-processedAt[c-1])
	}
	o.cost.addAllocs(from, to, st.Processed)
	o.offeredRate = float64(offered) / sentIn.Seconds()
	o.attempted = int64(total)
	o.skipped = col.Stats().RecordsSkipped
	checkLive(o, in, rt, st, offered, total)

	// A burst's peak depends on how the scheduler shared two cores among
	// four busy goroutines that time, so the run's p99 is close to the
	// worst burst's peak: a maximum, and as unsteady as one. The latency
	// reported is the median over cycles of each cycle's median and p99.
	perCycle := make([][]float64, cycles)
	n := 0
	for k := 0; k < next; k++ {
		if latency[k] >= 0 {
			c := int(due[k] / sched.Cycle)
			perCycle[c] = append(perCycle[c], ms(latency[k]))
			n++
		}
	}
	var p50s, p99s []float64
	for _, lat := range perCycle {
		if len(lat) > 0 {
			s := sortedCopy(lat)
			p50s, p99s = append(p50s, quantile(s, 0.5)), append(p99s, quantile(s, 0.99))
		}
	}
	// Gated is the burst tail: it tracks the path's capacity, where the
	// base-rate median is mostly the time a parked drain takes to wake.
	o.latency = dist{n: n, p50: median(p50s), tail: median(p99s), tailQ: 0.99}
	o.latencyMs = median(p99s)
	var outside []float64
	for k, l := range late {
		o.lateMs = append(o.lateMs, ms(l))
		if sched.Clear(due[k]) {
			outside = append(outside, ms(l))
		}
	}
	o.lateOutBurst = quantile(sortedCopy(outside), 0.99)

	if after := heapAfterGC(); after > base {
		o.liveHeapMB = heapMB(after - base)
	}
	// Neither the runtime nor the inputs may die before the reading above:
	// the live heap is what the run leaves on top of its inputs.
	runtime.KeepAlive(rt)
	runtime.KeepAlive(in)
	return o
}

// checkLive accounts for every offered flow: each was either processed or
// shed, none twice, none silently. What was offered per class is the
// reference's totals for the whole image loops plus the simple path over
// the last, partial one. With nothing shed the runtime's per-class totals
// must equal it; with shedding no class may exceed it and the classes must
// still add up to what was processed.
func checkLive(o *outcome, in *inputs, rt *core.Runtime, st core.RuntimeStats, offered uint64, messages int) {
	q := st.Queue
	if q.Ingested != offered || q.Queued+q.Shed != q.Ingested || st.Processed != q.Queued {
		o.fail("%d flows offered: %d ingested, %d queued, %d shed, %d processed", offered, q.Ingested, q.Queued, q.Shed, st.Processed)
	}
	loops := uint64(messages / in.wire.Messages())
	partial := in.newAggregator()
	flows, err := in.wire.Decode()
	if err != nil {
		o.fail("decoding the wire image: %v", err)
		return
	}
	for _, f := range flows[:offered-loops*uint64(len(flows))] {
		partial.Add(f, in.pipeline.Classify(f))
	}
	got := rt.ClassTotals()
	var sum uint64
	for c := range got {
		want := core.Counter{
			Flows:   loops*in.refTotals[c].Flows + partial.Total[c].Flows,
			Packets: loops*in.refTotals[c].Packets + partial.Total[c].Packets,
			Bytes:   loops*in.refTotals[c].Bytes + partial.Total[c].Bytes,
		}
		if got[c].Flows > want.Flows || (q.Shed == 0 && got[c] != want) {
			o.fail("class %s: %+v processed, %+v offered, %d shed in all", core.TrafficClass(c), got[c], want, q.Shed)
		}
	}
	// Bogon, Unrouted, Regular and Invalid-FULL partition the flows; the
	// other two Invalid tallies overlap them.
	for _, c := range []core.TrafficClass{core.TCRegular, core.TCBogon, core.TCUnrouted, core.TCInvalidFull} {
		sum += got[c].Flows
	}
	if sum != st.Processed {
		o.fail("classes add up to %d flows, %d were processed", sum, st.Processed)
	}
}
