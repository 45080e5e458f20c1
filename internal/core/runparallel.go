package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// consumeBatchSize is how many flows a drain worker claims per queue
// operation — the batch ClassifyBatch is tuned for. Large enough to amortize
// the claim and the aggregate lock to noise, small enough that a batch
// finishes in well under a millisecond — the window in which an in-flight
// batch can defer a quiescent checkpoint.
const consumeBatchSize = ClassifyBatchSize

// RunParallel consumes flows with `workers` concurrent consumers (default
// and cap: GOMAXPROCS) until the context is cancelled or the runtime is
// closed and drained. Every worker runs the one batch drain loop (see drain):
// claim a batch, classify it against one epoch snapshot, and aggregate it in
// place — straight into the canonical aggregate — when the runtime lock is
// free. Only a worker that finds the lock held by another spills the batch
// into a private shard; it then stays on that shard until its next barrier —
// the idle edge (queue found empty) or exit — where the shard folds back
// into the canonical aggregate. Because Aggregator.Merge is
// order-independent, a drained run's aggregate — and its canonical
// checkpoint encoding — is byte-identical to a flow-by-flow Aggregator.Add
// over the same flows, whatever the worker count and however many batches
// spilled.
//
// Periodic checkpoints still require quiescence; they are taken at the first
// idle edge at which they are due, once every worker has folded (the
// checkpoint path refuses to run while any worker holds an unmerged batch,
// so the cursor can never outrun the aggregate).
//
// fn (optional) observes every flow and verdict, after the flow's batch has
// been aggregated; calls are serialized (a worker holds the observer lock for
// one batch at a time), but arrive in worker-completion order, not arrival
// order. Returning false stops consumption: fn is not called again — not for
// the rest of that batch, not for batches other workers have in flight —
// intake is closed, and workers exit after aggregating their in-flight
// batches; flows still queued stay queued. Do not run RunParallel
// concurrently with Run or another RunParallel.
func (rt *Runtime) RunParallel(ctx context.Context, workers int, fn func(ipfix.Flow, LiveVerdict) bool) error {
	// Worker counts beyond GOMAXPROCS clamp: extra consumers cannot add CPU,
	// only queue and lock contention (on a 1-CPU host an unclamped parallel-2
	// measured 849K flows/sec against one worker's 1.02M).
	if max := runtime.GOMAXPROCS(0); workers <= 0 || workers > max {
		workers = max
	}
	if ctx != nil {
		stop := context.AfterFunc(ctx, rt.Close)
		defer stop()
	}
	var (
		stopped atomic.Bool
		observe func([]ipfix.Flow, []Verdict, Epoch, bool)
	)
	if fn != nil {
		// One lock per drained batch, not per flow: serializing the calls is
		// the contract, and at 256 flows a batch the lock is noise.
		var fnMu sync.Mutex
		observe = func(flows []ipfix.Flow, verdicts []Verdict, epoch Epoch, stale bool) {
			fnMu.Lock()
			defer fnMu.Unlock()
			for i := range flows {
				// Another worker's batch may have stopped the run while this
				// one waited for the lock: nothing is observed after fn has
				// returned false, the rest of its own batch included.
				if stopped.Load() {
					return
				}
				if !fn(flows[i], LiveVerdict{Verdict: verdicts[i], Epoch: epoch, Stale: stale}) {
					stopped.Store(true)
					rt.Close()
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Profiler labels distinguish the drain workers from the feed side
		// in CPU/goroutine profiles (`stage=merge` overrides while folding).
		labels := pprof.Labels("worker", strconv.Itoa(w), "stage", "drain")
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(ctx context.Context) {
				rt.drain(ctx, workers == 1, observe, &stopped)
			})
		}()
	}
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// drain is the batch drain loop, the only way a flow leaves the queue: Run is
// one worker of it, RunParallel is n, and the root LiveRuntime exposes both
// as they are. ctx
// carries the worker's profiler labels. sole says no other worker exists, so
// a held lock can only be a scrape or a snapshot about to let go: that worker
// waits for it, and never owns a second aggregator.
func (rt *Runtime) drain(ctx context.Context, sole bool, observe func([]ipfix.Flow, []Verdict, Epoch, bool), stopped *atomic.Bool) {
	// Reused every batch: the steady-state loop allocates nothing per flow.
	buf := make([]ipfix.Flow, consumeBatchSize)
	verdicts := make([]Verdict, consumeBatchSize)
	var (
		// spill is the private shard, allocated by the first batch that finds
		// the lock held; spilled counts the flows in it that the canonical
		// aggregate does not hold yet. Every fold Resets it for reuse: the
		// shard's node allocator takes back everything the stretch handed
		// out, so the next stretch allocates only what it needs beyond this
		// worker's peak so far — nothing, in steady state.
		spill   *Aggregator
		spilled uint64
		// latShard buffers this worker's sampled classify latencies off the
		// shared histogram; nil (telemetry off) makes Observe/Flush no-ops.
		latShard *obs.Shard
	)
	if rt.classifyHist != nil {
		latShard = rt.classifyHist.NewShard()
	}
	// Labels are built once: relabelling at a fold then allocates nothing.
	mergeCtx := pprof.WithLabels(ctx, pprof.Labels("stage", "merge"))
	// settle is the barrier before parking and before exit: surface
	// everything this worker buffered, so the canonical aggregate is current
	// and a due checkpoint can find the run quiescent. With nothing spilled
	// and no checkpoint due it touches no shared state.
	settle := func() {
		latShard.Flush()
		if spilled > 0 {
			pprof.SetGoroutineLabels(mergeCtx)
			rt.mu.Lock()
			t0 := time.Now()
			rt.agg.Merge(spill)
			rt.merged += spilled
			rt.merges++
			if rt.mergeHist != nil {
				rt.mergeHist.Observe(time.Since(t0).Seconds())
			}
			rt.mu.Unlock()
			spill.Reset()
			spilled = 0
			pprof.SetGoroutineLabels(ctx)
		}
		rt.tryCheckpoint()
	}
	for !stopped.Load() {
		n := rt.queue.TryPopBatch(buf)
		if n == 0 {
			settle() // idle edge
			n = rt.queue.PopBatch(buf)
			if n == 0 {
				break // closed and drained
			}
		}
		<-rt.firstEpoch
		st := rt.state.Load()
		// One epoch snapshot and one degradation reading per batch (the latter
		// only tags verdicts as stale; the aggregate ignores it).
		rt.classifyBatchTimed(st.pipeline, buf[:n], verdicts[:n], latShard.Observe)
		stale := rt.degraded.Load()
		if stale {
			rt.stale.Add(uint64(n))
		}
		if rt.drainHook != nil {
			rt.drainHook(buf[:n], verdicts[:n])
		}
		// A worker that has spilled stays on its shard until it settles:
		// under saturation one worker then owns the canonical aggregate and
		// the others their shards, instead of all of them taking turns on the
		// same cache lines.
		inPlace := sole
		if sole {
			rt.mu.Lock()
		} else if spilled == 0 {
			inPlace = rt.mu.TryLock()
		}
		if inPlace {
			rt.agg.AddBatch(buf[:n], verdicts[:n])
			rt.merged += uint64(n)
			rt.inPlace++
			rt.mu.Unlock()
		} else {
			if spill == nil {
				// start/bucket are immutable after the aggregator is built,
				// so the shard can be created without rt.mu.
				spill = NewAggregator(rt.agg.start, rt.agg.bucket)
			}
			spill.AddBatch(buf[:n], verdicts[:n])
			spilled += uint64(n)
			rt.spilledBatches.Add(1)
		}
		rt.processed.Add(uint64(n))
		if observe != nil {
			observe(buf[:n], verdicts[:n], st.epoch, stale)
		}
	}
	settle()
}

// tryCheckpoint attempts a due periodic snapshot. The atomic check keeps the
// common case (not due) off rt.mu; checkpointLocked re-verifies quiescence.
func (rt *Runtime) tryCheckpoint() {
	if rt.cfg.CheckpointEvery == 0 || rt.cfg.CheckpointPath == "" ||
		rt.processed.Load()-rt.ckptMark.Load() < rt.cfg.CheckpointEvery {
		return
	}
	rt.mu.Lock()
	if rt.checkpointDueLocked() {
		rt.checkpointLocked()
	}
	rt.mu.Unlock()
}
