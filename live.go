package spoofscope

// The live runtime facade: the deployment mode the paper's conclusion
// proposes, wrapping internal/core's epoch-versioned runtime and
// internal/bgp's snapshot feed in the package's public vocabulary. A
// LiveRuntime classifies a continuous flow stream against hot-swappable
// routing state, sheds load deterministically under pressure, and
// checkpoints its aggregate state so a crash mid-run resumes exactly.

import (
	"context"
	"fmt"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
)

// Live-runtime types, re-exported from internal/core.
type (
	// Epoch identifies one promoted generation of routing state.
	Epoch = core.Epoch
	// LiveVerdict is a Verdict tagged with the producing epoch and a
	// staleness marker.
	LiveVerdict = core.LiveVerdict
	// QueueConfig tunes the bounded ingest queue (capacity and the high
	// watermark at which shedding starts).
	QueueConfig = core.QueueConfig
	// QueueStats is the ingest queue's accounting snapshot.
	QueueStats = core.QueueStats
	// RuntimeStats is the live runtime's health snapshot.
	RuntimeStats = core.RuntimeStats
	// Checkpoint is a crash-safe snapshot of a live run.
	Checkpoint = core.Checkpoint
	// Aggregator accumulates the paper's aggregate analyses in one pass.
	Aggregator = core.Aggregator
)

// ReadCheckpoint loads a checkpoint file written by a LiveRuntime (or
// cmd/classify's -checkpoint flag).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	return core.ReadCheckpointFile(path)
}

// LiveRuntimeConfig assembles a LiveRuntime.
type LiveRuntimeConfig struct {
	// Classifier seeds the first epoch (optional: with nil, classification
	// blocks until the first SwapClassifier / BGP snapshot promotes one).
	Classifier *Classifier
	// Members is the IXP member table, reused when BGP snapshots rebuild
	// the pipeline.
	Members []Member
	// Options tunes every pipeline built for this runtime.
	Options ClassifierOptions
	// Start and Bucket configure the aggregate time series.
	Start  time.Time
	Bucket time.Duration
	// Queue bounds ingest with watermark shedding.
	Queue QueueConfig
	// CheckpointPath and CheckpointEvery enable periodic crash-safe
	// snapshots (every N processed flows, written atomically).
	CheckpointPath  string
	CheckpointEvery uint64
	// Resume restores a prior run's checkpoint; the flow source must be
	// re-fed from index Resume.Ingested onward.
	Resume *Checkpoint
	// Telemetry, when non-nil, registers the runtime's health metrics with
	// its registry, wires its event journal through the queue, checkpoint,
	// and swap paths, and installs the runtime's /healthz readiness source.
	// One runtime per Telemetry: metric names would collide otherwise.
	Telemetry *Telemetry
}

// LiveRuntime is the continuous classification engine: collectors push
// flows in via Ingest (never blocking — overload sheds, fully accounted),
// one Run or RunParallel call drains them, and a BGP feed promotes fresh
// routing state between batches via SwapClassifier or ServeBGP.
type LiveRuntime struct {
	rt      *core.Runtime
	members []Member
	opts    ClassifierOptions
	tel     *Telemetry
}

// NewLiveRuntime builds the runtime.
func NewLiveRuntime(cfg LiveRuntimeConfig) (*LiveRuntime, error) {
	var p *core.Pipeline
	if cfg.Classifier != nil {
		p = cfg.Classifier.Pipeline()
	}
	rt, err := core.NewRuntime(core.RuntimeConfig{
		Pipeline: p,
		Start:    cfg.Start, Bucket: cfg.Bucket,
		Queue:           cfg.Queue,
		CheckpointPath:  cfg.CheckpointPath,
		CheckpointEvery: cfg.CheckpointEvery,
		Resume:          cfg.Resume,
		Telemetry:       cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	return &LiveRuntime{rt: rt, members: cfg.Members, opts: cfg.Options, tel: cfg.Telemetry}, nil
}

// Telemetry returns the bundle the runtime was built with (nil if none).
func (lr *LiveRuntime) Telemetry() *Telemetry { return lr.tel }

// Ingest offers one flow; false reports it was shed or the runtime closed.
func (lr *LiveRuntime) Ingest(f Flow) bool { return lr.rt.Ingest(f) }

// IngestBatch offers a decoded message's flows in one call — the zero-copy
// hand-off from the collectors' batch callbacks (ServeBatch, ForEachBatch).
// Flows are queued by value so the caller may reuse the slice immediately;
// parked consumers are woken once per batch instead of per record. It
// returns how many flows were queued (the rest were shed or the runtime is
// closed). A live collector keeps serving whatever was shed:
// `col.ServeBatch(func(b []Flow) bool { lr.IngestBatch(b); return true })`.
func (lr *LiveRuntime) IngestBatch(flows []Flow) int { return lr.rt.IngestBatch(flows) }

// IngestWait offers one flow with backpressure: a full queue blocks the
// caller instead of shedding. Use it for replayable sources (file readers)
// where every flow must be classified; live collectors keep using Ingest,
// whose never-block contract bounds their latency. False reports the
// runtime was closed before the flow could be queued.
func (lr *LiveRuntime) IngestWait(f Flow) bool { return lr.rt.IngestWait(f) }

// IngestBatchWait queues a whole decoded batch with IngestWait's never-shed
// backpressure contract, waking consumers once per batch — a file replay is
// `fr.ForEachBatch(lr.IngestBatchWait)`. False reports the runtime closed
// before the whole batch could be queued.
func (lr *LiveRuntime) IngestBatchWait(flows []Flow) bool { return lr.rt.IngestBatchWait(flows) }

// Run is RunParallel with one worker, which aggregates every batch in place.
func (lr *LiveRuntime) Run(ctx context.Context, fn func(Flow, LiveVerdict) bool) error {
	return lr.rt.Run(ctx, fn)
}

// RunParallel consumes flows with `workers` concurrent consumers (default
// and cap: GOMAXPROCS) until ctx is cancelled or the runtime is closed and
// drained. Every worker runs the one batch drain loop: claim a batch,
// classify it against one epoch snapshot, and aggregate it in place —
// straight into the canonical aggregate — when the runtime lock is free.
// Only a worker that finds the lock held by another spills the batch into a
// private shard, and stays on it until its next barrier (the idle edge, or
// exit), where the shard folds back. Merging is order-independent, so a
// drained run's aggregate — and its canonical checkpoint encoding — is
// byte-identical to a flow-by-flow aggregation of the same flows, whatever
// the worker count and however many batches spilled. Periodic checkpoints are
// taken at the first idle edge at which they are due, once every worker has
// folded.
//
// fn (optional) observes every flow and verdict, after the flow's batch has
// been aggregated; calls are serialized (one observer lock per batch) but
// arrive in worker-completion order, not arrival order. Returning false stops
// consumption: fn is not called again, intake is closed, and workers exit
// after aggregating their in-flight batches. Do not run concurrently with Run
// or another RunParallel.
func (lr *LiveRuntime) RunParallel(ctx context.Context, workers int, fn func(Flow, LiveVerdict) bool) error {
	return lr.rt.RunParallel(ctx, workers, fn)
}

// SwapClassifier promotes a rebuilt classifier as the next epoch and clears
// the degraded marker.
func (lr *LiveRuntime) SwapClassifier(c *Classifier) Epoch {
	return lr.rt.Swap(c.Pipeline())
}

// MarkDegraded flags the routing feed as stale; verdicts carry Stale=true
// until the next swap.
func (lr *LiveRuntime) MarkDegraded() { lr.rt.MarkDegraded() }

// Close stops intake; a running drain classifies what is queued, then
// returns.
func (lr *LiveRuntime) Close() { lr.rt.Close() }

// Checkpoint forces a snapshot now (the queue must be drained).
func (lr *LiveRuntime) Checkpoint() error { return lr.rt.Checkpoint() }

// Stats snapshots the runtime's health counters.
func (lr *LiveRuntime) Stats() RuntimeStats { return lr.rt.Stats() }

// Aggregator exposes the aggregate state; do not race it with a running
// drain.
func (lr *LiveRuntime) Aggregator() *Aggregator { return lr.rt.Aggregator() }

// BGPFeedConfig wires a live route-server session into the runtime.
type BGPFeedConfig struct {
	// Addr is the route server to dial.
	Addr string
	// Session configures the BGP handshake.
	Session bgp.SessionConfig
	// Reconnect tunes supervision (backoff, attempts, context, dialer);
	// Addr and Session above override the corresponding fields.
	Reconnect bgp.ReconnectorConfig
	// MaxEpochs, when > 0, stops the feed after that many promoted
	// snapshots (tests and finite replays; 0 = run until closed).
	MaxEpochs int
}

// ServeBGP runs a supervised BGP feed that rebuilds and promotes the
// classifier on every complete table replay: session flaps mark the runtime
// degraded, each full replay compiles a fresh pipeline off the hot path and
// swaps it in. Blocks until the feed stops; run it in its own goroutine
// alongside Run.
func (lr *LiveRuntime) ServeBGP(cfg BGPFeedConfig) error {
	rcfg := cfg.Reconnect
	rcfg.Addr = cfg.Addr
	rcfg.Session = cfg.Session
	if rcfg.Telemetry == nil {
		rcfg.Telemetry = lr.tel
	}
	epochs := 0
	var rebuildErr error
	feed := bgp.NewFeed(bgp.FeedConfig{
		Reconnector: rcfg,
		OnGap:       func(error) { lr.rt.MarkDegraded() },
		OnSnapshot: func(rib *bgp.RIB) bool {
			// Off the hot path: classification continues on the old epoch
			// (possibly marked stale) while the new pipeline compiles.
			// RebuildAndSwap diffs the snapshot's fingerprint against the
			// current pipeline and reuses the graph/closure/index layers an
			// unchanged topology leaves valid, so steady-state replays
			// promote in a fraction of a cold compile.
			_, _, err := lr.rt.RebuildAndSwap(rib, lr.members, lr.opts.coreOptions())
			if err != nil {
				rebuildErr = fmt.Errorf("spoofscope: rebuilding pipeline: %w", err)
				return false
			}
			epochs++
			return cfg.MaxEpochs <= 0 || epochs < cfg.MaxEpochs
		},
	})
	err := feed.Run()
	if rebuildErr != nil {
		return rebuildErr
	}
	return err
}
