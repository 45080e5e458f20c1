// Live classification runtime: the deployment mode the paper's conclusion
// proposes ("every network on the inter-domain Internet can opt to apply
// it"), built for runs that outlive their inputs. Routing state is
// epoch-versioned and hot-swappable — a new pipeline is compiled off the
// hot path and promoted with an atomic pointer swap between flows — ingest
// is bounded with deterministic, fully-accounted load shedding, and the
// aggregate state checkpoints atomically so a crash mid-run resumes without
// losing the window.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// RuntimeConfig assembles a live runtime.
type RuntimeConfig struct {
	// Pipeline is the initial compiled pipeline (promoted as epoch 1). Nil
	// is allowed: the runtime starts with no routing state, ingested flows
	// queue (shedding past the watermark), and the drain blocks until the
	// first Swap promotes a pipeline.
	Pipeline *Pipeline
	// Start and Bucket configure the aggregator's time series (ignored on
	// resume: the checkpoint carries them).
	Start  time.Time
	Bucket time.Duration
	// Queue bounds ingest; see QueueConfig.
	Queue QueueConfig
	// CheckpointPath, when set with CheckpointEvery > 0, enables periodic
	// crash-safe snapshots: after every CheckpointEvery processed flows,
	// the next quiescent moment (empty queue) atomically persists the
	// aggregate and the replay cursor.
	CheckpointPath  string
	CheckpointEvery uint64
	// Resume restores a prior run's state (see ReadCheckpointFile). The
	// caller re-feeds the flow source from index Resume.Ingested onward.
	Resume *Checkpoint
	// Telemetry, when non-nil, registers the runtime's counters with the
	// metric registry (func-backed over the same state Stats() reads, so a
	// scrape can never disagree with a snapshot), installs the /healthz
	// readiness source, samples classify latency into a histogram, and
	// records lifecycle events — epoch swaps, degradation, shedding
	// watermark transitions, checkpoint writes and failures — in the
	// journal. One runtime per Telemetry: a second runtime re-registering
	// the same names would replace the first's func-backed metrics.
	Telemetry *obs.Telemetry
}

// RuntimeStats is a snapshot of the live runtime's health — what an
// operator watches to tell a healthy continuous run from a limping one.
type RuntimeStats struct {
	// Epoch is the routing-state generation currently classifying (0 =
	// no pipeline promoted yet); Swaps counts promotions.
	Epoch Epoch
	Swaps uint64
	// Degraded reports whether the routing feed is currently known stale
	// (session down or rebuild pending); StaleVerdicts counts verdicts
	// issued while degraded.
	Degraded      bool
	StaleVerdicts uint64
	// Processed counts flows classified and aggregated; Checkpoints counts
	// snapshots written.
	Processed   uint64
	Checkpoints uint64
	// CheckpointErrors counts snapshot attempts that failed to persist;
	// LastCheckpointError is the most recent failure (empty once a later
	// snapshot succeeds). A disk-full or unwritable path would otherwise
	// silently disable crash-safety while the run kept going.
	CheckpointErrors    uint64
	LastCheckpointError string
	// DrainInPlace and DrainSpilled count drained batches by where they were
	// aggregated: straight into the canonical aggregate, or — the runtime
	// lock being held by another worker — into the worker's private shard.
	// DrainMerges counts the folds of such a shard back into the canonical
	// aggregate. Spilled batches and merges are what lock contention costs; a
	// run below capacity shows neither.
	DrainInPlace uint64
	DrainSpilled uint64
	DrainMerges  uint64
	// Queue is the ingest queue's accounting (shed, queued, high
	// watermark).
	Queue QueueStats
}

// Runtime is the live classification engine. IngestBatch and IngestBatchWait
// may be called from any number of producer goroutines (IPFIX collectors);
// Run and RunParallel are one and n workers of the batch drain loop, the
// only consumer (one call at a time); Swap and MarkDegraded may be called
// from a routing-feed goroutine at any time — promotion is an atomic pointer
// swap between batches, never a pause.
type Runtime struct {
	cfg   RuntimeConfig
	queue *IngestQueue

	state      atomic.Pointer[epochState]
	degraded   atomic.Bool
	stale      atomic.Uint64
	swaps      atomic.Uint64
	firstEpoch chan struct{}
	swapMu     sync.Mutex
	lastEpoch  Epoch
	promoted   bool // a pipeline has been promoted (firstEpoch closed); under swapMu

	// processed counts flows classified by any drain worker; ckptMark
	// mirrors the merged count at the last successful checkpoint so workers
	// can test checkpoint due-ness without rt.mu.
	processed atomic.Uint64
	ckptMark  atomic.Uint64

	mu          sync.Mutex // guards agg, merged, inPlace, merges, lastCkpt, checkpoints, ckptErrors, lastCkptErr
	agg         *Aggregator
	merged      uint64 // flows represented in agg (== processed once workers fold)
	inPlace     uint64 // batches aggregated straight into agg
	merges      uint64 // private shards folded into agg
	lastCkpt    uint64 // merged count at the last successful checkpoint
	checkpoints uint64
	ckptErrors  uint64
	lastCkptErr error

	// spilledBatches counts batches a worker aggregated into its private
	// shard because it found mu held.
	spilledBatches atomic.Uint64

	// drainHook, set by tests only, runs on a drain worker between a batch's
	// classification and its aggregation. It may rewrite the verdicts, and it
	// may hold or release mu to decide where the batch lands.
	drainHook func(flows []ipfix.Flow, verdicts []Verdict)

	// Telemetry (all nil/no-op without cfg.Telemetry): journal for
	// lifecycle events, classifyHist for sampled classify latency, mergeHist
	// for the duration of each private-shard fold.
	tel          *obs.Telemetry
	journal      *obs.Journal
	classifyHist *obs.Histogram
	mergeHist    *obs.Histogram

	// Build bookkeeping (RecordBuild / RebuildAndSwap): duration of the
	// most recent compilation, per-reuse-mode counts, and the histogram.
	lastBuildNs atomic.Int64
	builds      [numBuildReuse]atomic.Uint64
	buildHist   *obs.Histogram
}

// NewRuntime builds a runtime. With cfg.Resume set, the aggregate state and
// ingest counters continue from the checkpoint; cfg.Pipeline (if non-nil)
// is promoted as the checkpoint's epoch, since it must be rebuilt from the
// same routing state the resumed run had. The checkpoint's degradation
// state (Degraded, StaleVerdicts, Swaps) carries forward too: a run that
// crashed while its routing feed was down resumes degraded — the feed gap
// is still open — until a live feed promotes fresh state.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	rt := &Runtime{
		cfg:        cfg,
		queue:      NewIngestQueue(cfg.Queue),
		firstEpoch: make(chan struct{}),
	}
	start, bucket := cfg.Start, cfg.Bucket
	if bucket <= 0 {
		bucket = time.Hour
	}
	rt.agg = NewAggregator(start, bucket)
	if cfg.Telemetry != nil {
		rt.instrument(cfg.Telemetry)
	}
	if cp := cfg.Resume; cp != nil {
		if cp.Agg == nil {
			return nil, fmt.Errorf("core: resume checkpoint has no aggregate")
		}
		rt.agg = cp.Agg
		rt.processed.Store(cp.Processed)
		rt.merged = cp.Processed
		rt.lastCkpt = cp.Processed
		rt.ckptMark.Store(cp.Processed)
		rt.stale.Store(cp.StaleVerdicts)
		rt.swaps.Store(cp.Swaps)
		rt.lastEpoch = cp.Epoch
		if cp.Epoch > 0 {
			rt.lastEpoch = cp.Epoch - 1 // the next Swap re-promotes it
		}
		rt.queue.restore(cp.Ingested, cp.Queued, cp.Shed)
		if cfg.Pipeline != nil {
			rt.Swap(cfg.Pipeline)
			if cp.Epoch > 0 {
				// That Swap re-promoted the checkpointed epoch, not a new
				// generation: it is not a fresh swap, and it must not clear
				// a degradation the crashed run had open — the feed gap is
				// still open until a live feed delivers a new snapshot.
				rt.swaps.Store(cp.Swaps)
			}
		}
		rt.degraded.Store(cp.Degraded)
		return rt, nil
	}
	if cfg.Pipeline != nil {
		rt.Swap(cfg.Pipeline)
	}
	return rt, nil
}

// IngestBatch offers a decoded message's flows in one call — the hand-off
// from the collectors' batch callbacks (ServeBatch / ForEachBatch). It never
// waits for room, only for the queue lock, which another call holds for at
// most one batch copy: flows are queued by value, so the caller may reuse the
// slice immediately; each flow sheds by the queue's per-arrival watermark
// policy (accounted in Stats().Queue.Shed), and parked consumers are woken
// once for the whole batch. It returns how many flows were queued (the rest
// were shed or the runtime is closed). A live collector keeps serving
// whatever was shed: `col.ServeBatch(func(b []ipfix.Flow) bool {
// rt.IngestBatch(b); return true })`.
func (rt *Runtime) IngestBatch(flows []ipfix.Flow) int { return rt.queue.PushBatch(flows) }

// IngestBatchWait queues a whole decoded batch with backpressure: a full
// queue blocks the caller instead of shedding, and consumers are woken once
// per batch. This is the feed path for replayable sources (file readers)
// where every flow must be classified; live
// collectors keep using IngestBatch, whose never-block contract is what
// bounds their latency. Its signature is the collectors' batch callback, so
// a replay is `fr.ForEachBatch(rt.IngestBatchWait)`. False reports the
// runtime closed before the whole batch could be queued.
func (rt *Runtime) IngestBatchWait(flows []ipfix.Flow) bool { return rt.queue.PushBatchWait(flows) }

// Swap promotes a freshly-built pipeline as the next epoch and clears the
// degraded marker. The swap is atomic: flows classified before it use the
// old state, flows after it the new — classification never pauses.
func (rt *Runtime) Swap(p *Pipeline) Epoch {
	rt.swapMu.Lock()
	rt.lastEpoch++
	e := rt.lastEpoch
	rt.state.Store(&epochState{epoch: e, pipeline: p})
	rt.degraded.Store(false)
	rt.swaps.Add(1)
	// The gate tracks "this Runtime has a pipeline", not epoch numbering: on
	// resume the first Swap re-promotes the checkpoint's epoch, which may be
	// any value > 1.
	if !rt.promoted {
		rt.promoted = true
		close(rt.firstEpoch)
	}
	rt.swapMu.Unlock()
	rt.journal.Recordf(obs.EventEpochSwap, "promoted epoch %d", e)
	return e
}

// MarkDegraded records that the routing feed is down or a rebuild is
// pending: verdicts issued from now until the next Swap carry Stale=true
// instead of silently pretending the old state is current.
func (rt *Runtime) MarkDegraded() {
	if !rt.degraded.Swap(true) {
		rt.journal.Record(obs.EventDegraded,
			"routing feed degraded; verdicts marked stale until the next swap")
	}
}

// checkpointDueLocked reports whether periodic checkpointing is configured
// and enough flows have merged since the last successful snapshot.
func (rt *Runtime) checkpointDueLocked() bool {
	return rt.cfg.CheckpointEvery > 0 && rt.cfg.CheckpointPath != "" &&
		rt.merged-rt.lastCkpt >= rt.cfg.CheckpointEvery
}

// Run is RunParallel with one worker: the sole worker of the batch drain
// loop waits for the runtime lock instead of spilling, so every batch is
// aggregated straight into the canonical aggregate — the single-core
// line-rate path. fn (optional) has RunParallel's contract: it sees a batch
// at a time, after that batch is aggregated, and returning false stops
// further calls and closes intake; the claimed batch it stopped in stays
// aggregated.
func (rt *Runtime) Run(ctx context.Context, fn func(ipfix.Flow, LiveVerdict) bool) error {
	return rt.RunParallel(ctx, 1, fn)
}

// Close stops intake. Pending flows remain consumable: Run and RunParallel
// drain them, then return.
func (rt *Runtime) Close() { rt.queue.Close() }

// ErrNotQuiescent reports a checkpoint attempt while flows are still in
// flight — queued, or claimed by a drain worker and not yet in the canonical
// aggregate (being classified, or spilled into its private shard). The
// periodic path treats it as "retry at the next barrier", not a failure; a
// caller of Checkpoint or WriteCheckpoint closes intake and lets the drain
// finish first.
var ErrNotQuiescent = errors.New("core: checkpoint requires a drained queue")

// Checkpoint forces a snapshot now. The queue must be empty (quiescent),
// otherwise the replay cursor would not uniquely position a resume.
func (rt *Runtime) Checkpoint() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.cfg.CheckpointPath == "" {
		return fmt.Errorf("core: no checkpoint path configured")
	}
	return rt.checkpointLocked()
}

// checkpointLocked snapshots under rt.mu. The quiescence test is two checks
// over one consistent queue snapshot (see snapshotLocked): depth != 0 catches
// queued but unconsumed flows, and merged != Queued catches flows a drain
// worker has claimed but not yet aggregated in place or folded back from its
// private shard (rt.mu is held here, so neither can land mid-check). Writing
// while either fails would let the replay cursor outrun the aggregate and a
// resume would silently skip flows. Write failures are accounted
// (CheckpointErrors, LastCheckpointError) so a persistent one cannot silently
// disable crash-safety.
func (rt *Runtime) checkpointLocked() error {
	cp, err := rt.snapshotLocked()
	if err != nil {
		return err
	}
	if err := WriteCheckpointFile(rt.cfg.CheckpointPath, cp); err != nil {
		rt.ckptErrors++
		rt.lastCkptErr = err
		rt.journal.Recordf(obs.EventCheckpointError, "snapshot at %d flows failed: %v", rt.merged, err)
		return err
	}
	rt.lastCkpt = rt.merged
	rt.ckptMark.Store(rt.merged)
	rt.checkpoints++
	rt.lastCkptErr = nil
	rt.journal.Recordf(obs.EventCheckpoint, "wrote %s at %d flows (epoch %d)",
		rt.cfg.CheckpointPath, cp.Processed, cp.Epoch)
	return nil
}

// snapshotLocked assembles the quiescent Checkpoint under rt.mu, or fails
// with ErrNotQuiescent. The returned checkpoint aliases the live aggregate;
// it is only safe to read while rt.mu is held (or while no consumer runs).
func (rt *Runtime) snapshotLocked() (*Checkpoint, error) {
	// A push that lands after this snapshot lands wholly after the cursor,
	// where a resume re-feeds it.
	qs := rt.queue.Stats()
	if qs.Depth != 0 {
		return nil, fmt.Errorf("%w (%d flows pending)", ErrNotQuiescent, qs.Depth)
	}
	if rt.merged != qs.Queued {
		return nil, fmt.Errorf("%w (%d flows in worker batches)", ErrNotQuiescent, qs.Queued-rt.merged)
	}
	return &Checkpoint{
		Ingested:      qs.Ingested,
		Queued:        qs.Queued,
		Shed:          qs.Shed,
		Processed:     rt.merged,
		Epoch:         rt.currentEpoch(),
		Swaps:         rt.swaps.Load(),
		StaleVerdicts: rt.stale.Load(),
		Degraded:      rt.degraded.Load(),
		Agg:           rt.agg,
	}, nil
}

// WriteCheckpoint encodes a quiescent snapshot of the runtime to w using
// the versioned checkpoint codec, without requiring a configured checkpoint
// path — for a caller that keeps the bytes itself, as a replay that drains
// and then checkpoints does. The encode happens under the runtime lock, so
// parallel workers cannot merge mid-encode; it fails with ErrNotQuiescent
// while any flow is still in flight.
func (rt *Runtime) WriteCheckpoint(w io.Writer) error {
	return rt.snapshot(func(cp *Checkpoint) error { return EncodeCheckpoint(w, cp) })
}

// snapshot calls fn with a quiescent snapshot of the runtime while the
// runtime lock is held, so the cursor block and the aggregate fn sees belong
// to one instant: cp.Processed is exactly the number of ingested flows cp.Agg
// incorporates. It fails with ErrNotQuiescent, without calling fn, while any
// flow is in flight. cp aliases live state and is valid only until fn
// returns; fn must not call back into the runtime.
func (rt *Runtime) snapshot(fn func(cp *Checkpoint) error) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	cp, err := rt.snapshotLocked()
	if err != nil {
		return err
	}
	return fn(cp)
}

func (rt *Runtime) currentEpoch() Epoch {
	if st := rt.state.Load(); st != nil {
		return st.epoch
	}
	return 0
}

// Aggregator exposes the aggregate state. The caller must not race it with
// a running drain; read it after Run or RunParallel has returned.
func (rt *Runtime) Aggregator() *Aggregator {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.agg
}

// ClassTotals returns a copy of the canonical aggregate's per-class totals,
// indexed by TrafficClass, taken under the runtime lock — unlike
// Aggregator, it is safe to call while parallel drains are merging. During
// a parallel run the tallies lag by at most the workers' unfolded shards
// (the same guarantee the per-class scrape metrics give).
func (rt *Runtime) ClassTotals() []Counter {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]Counter, numTrafficClasses)
	copy(out, rt.agg.Total[:])
	return out
}

// Stats returns a snapshot of the runtime's health counters. Processed
// counts every aggregated flow, spilled or in place, so an operator always
// sees live progress.
func (rt *Runtime) Stats() RuntimeStats {
	rt.mu.Lock()
	checkpoints, inPlace, merges := rt.checkpoints, rt.inPlace, rt.merges
	ckptErrors, lastCkptErr := rt.ckptErrors, ""
	if rt.lastCkptErr != nil {
		lastCkptErr = rt.lastCkptErr.Error()
	}
	rt.mu.Unlock()
	return RuntimeStats{
		Epoch:               rt.currentEpoch(),
		Swaps:               rt.swaps.Load(),
		Degraded:            rt.degraded.Load(),
		StaleVerdicts:       rt.stale.Load(),
		Processed:           rt.processed.Load(),
		Checkpoints:         checkpoints,
		CheckpointErrors:    ckptErrors,
		LastCheckpointError: lastCkptErr,
		DrainInPlace:        inPlace,
		DrainSpilled:        rt.spilledBatches.Load(),
		DrainMerges:         merges,
		Queue:               rt.queue.Stats(),
	}
}
