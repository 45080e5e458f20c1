package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"spoofscope/benchmark/trace"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// outcome is what one measuring loop saw. The end-to-end metrics and the
// counts the traced run reports are both read from it.
type outcome struct {
	cost cost // one sample per timed region: a pass, a cycle or a feed

	// latencyMs is the end-to-end latency_ms: the workload's operation by
	// the statistic that is steady for it (README.md, "What latency means").
	// latency is the same operation as the traced run reports it: median
	// and tail.
	latencyMs  float64
	latency    dist
	liveHeapMB float64

	offered, processed, shed uint64
	attempted, failed        int64
	errs                     []string

	// Observations for the per-layer table.
	queue        core.QueueStats
	depths       []float64     // queue depth samples
	blocked      time.Duration // time the producer spent inside IngestBatchWait
	skipped      int           // records the decoder skipped
	lateMs       []float64     // open loop: how late each message was sent
	lateOutBurst float64       // open loop: p99 lateness of messages due clear of any burst, ms
	offeredRate  float64       // open loop: flows per second the generator sent
	cluster      clusterCounts
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// heapPasses is how many passes at the start of a loop measure the live
// heap: each costs two heapAfterGC readings outside the timed region.
const heapPasses = 3

// replayer replays a wire image from memory through fresh runtimes: one
// reader, so template state and decode scratch are warm after the first
// pass, as they are in cmd/classify after the first message.
type replayer struct {
	in  *inputs
	src *bytes.Reader
	fr  *ipfix.FileReader
	out bytes.Buffer
}

func newReplayer(in *inputs) *replayer {
	src := bytes.NewReader(in.wire.Bytes)
	return &replayer{in: in, src: src, fr: ipfix.NewFileReader(src)}
}

func (r *replayer) newRuntime(tel *obs.Telemetry) (*core.Runtime, error) {
	return core.NewRuntime(core.RuntimeConfig{
		Pipeline: r.in.pipeline, Start: r.in.start, Bucket: r.in.bucket,
		Queue:     core.QueueConfig{Capacity: queueCapacity},
		Telemetry: tel,
	})
}

// pass is one closed-loop replay, cmd/classify's path: wire bytes → decode →
// IngestBatchWait → sequential Run drain → WriteCheckpoint, on a fresh
// runtime built outside the timed region. It returns the pass's wall time
// and the checkpoint's share of it.
func (r *replayer) pass(o *outcome, rec *trace.Recorder, id int64, tel *obs.Telemetry, wantHeap bool) (wall, ckpt time.Duration, heap uint64) {
	var base uint64
	if wantHeap {
		base = heapAfterGC()
	}
	rt, err := r.newRuntime(tel)
	if err != nil {
		o.fail("new runtime: %v", err)
		return
	}
	r.src.Reset(r.in.wire.Bytes)
	r.fr.Reset(r.src)
	r.out.Reset()
	skippedBefore := r.fr.CollectorStats().RecordsSkipped

	from := readUsage()
	span := rec.Begin("pass", id, -1)
	drainSpan := rec.Begin("runtime.drain", id, span)
	done := make(chan error, 1)
	go func() {
		err := rt.Run(nil, nil)
		rec.End(drainSpan)
		done <- err
	}()
	if rec == nil {
		err = r.fr.ForEachBatch(rt.IngestBatchWait)
	} else {
		err = r.feedTraced(o, rt, rec, id, span)
	}
	rt.Close()
	if derr := <-done; err == nil {
		err = derr
	}
	ckStart := time.Now()
	ckSpan := rec.Begin("runtime.checkpoint", id, span)
	if cerr := rt.WriteCheckpoint(&r.out); err == nil {
		err = cerr
	}
	rec.End(ckSpan)
	rec.End(span)
	to := readUsage()

	n := uint64(r.in.wire.Flows)
	o.cost.add(from, to, n)
	o.attempted++
	o.offered += n
	st := rt.Stats()
	o.processed += st.Processed
	o.shed += st.Queue.Shed
	o.queue = st.Queue
	o.skipped += r.fr.CollectorStats().RecordsSkipped - skippedBefore
	switch {
	case err != nil:
		o.fail("pass %d: %v", id, err)
	case st.Processed != n || st.Queue.Shed != 0:
		o.fail("pass %d: %d flows offered, %d processed, %d shed", id, n, st.Processed, st.Queue.Shed)
	case !bytes.Equal(r.out.Bytes(), r.in.ref):
		o.fail("pass %d: checkpoint differs from the reference", id)
	}
	if wantHeap {
		if after := heapAfterGC(); after > base {
			heap = after - base
		}
		runtime.KeepAlive(rt) // the live heap is the runtime's state
	}
	return to.wall.Sub(from.wall), to.wall.Sub(ckStart), heap
}

// depthEvery is how many messages pass between two queue-depth samples in a
// traced pass.
const depthEvery = 64

// feedTraced is ForEachBatch(IngestBatchWait) taken apart so that the two
// calls can be timed: their summed durations become two spans of the pass.
func (r *replayer) feedTraced(o *outcome, rt *core.Runtime, rec *trace.Recorder, id int64, span int) error {
	start := rec.Now()
	var decode, wait time.Duration
	for msg := 0; ; msg++ {
		t0 := time.Now()
		batch, err := r.fr.NextBatch()
		t1 := time.Now()
		decode += t1.Sub(t0)
		if err != nil {
			rec.Add("ipfix.next_batch", id, span, start, decode)
			rec.Add("runtime.ingest_batch_wait", id, span, start+int64(decode), wait)
			o.blocked += wait
			if err == io.EOF {
				return nil
			}
			return err
		}
		rt.IngestBatchWait(batch)
		wait += time.Since(t1)
		rec.Count("ipfix.flows", int64(len(batch)))
		if msg%depthEvery == 0 {
			o.depths = append(o.depths, float64(rt.Stats().Queue.Depth))
		}
	}
}

// runReplay repeats passes for d.
func runReplay(in *inputs, d time.Duration, rec *trace.Recorder) *outcome {
	o := &outcome{}
	r := newReplayer(in)
	// One untimed pass first: the reader's scratch grows and its template
	// arrives once, not once per pass.
	r.pass(&outcome{}, nil, 0, nil, false)

	var ckpts, heaps []float64
	begin := time.Now()
	for id := int64(1); id <= heapPasses || time.Since(begin) < d; id++ {
		wall, ckpt, heap := r.pass(o, rec, id, nil, id <= heapPasses)
		if wall > 0 {
			ckpts = append(ckpts, ms(ckpt))
		}
		if heap > 0 {
			heaps = append(heaps, heapMB(heap))
		}
	}
	// Every pass writes the same checkpoint, so the write is a fixed piece
	// of work and its lower quartile the steady statistic.
	o.latency, o.latencyMs = summarise(ckpts), lowerQuartile(ckpts)
	o.liveHeapMB = median(heaps)
	return o
}
