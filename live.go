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

// LiveRuntime is the continuous classification engine. It is the internal
// runtime itself, so its ingest and drain are core.Runtime's: collectors
// hand over each decoded message with IngestBatch (never waiting for room,
// only for the queue lock's one batch copy — overload sheds, fully
// accounted) or IngestBatchWait (backpressure, for replayable
// sources), one Run or RunParallel call drains them, and a BGP feed promotes
// fresh routing state between batches via SwapClassifier or ServeBGP.
type LiveRuntime struct {
	*core.Runtime
	members []Member
	opts    core.Options // cfg.Options, lowered once for every rebuild
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
	return &LiveRuntime{Runtime: rt, members: cfg.Members, opts: cfg.Options.coreOptions(), tel: cfg.Telemetry}, nil
}

// Telemetry returns the bundle the runtime was built with (nil if none).
func (lr *LiveRuntime) Telemetry() *Telemetry { return lr.tel }

// SwapClassifier promotes a rebuilt classifier as the next epoch and clears
// the degraded marker.
func (lr *LiveRuntime) SwapClassifier(c *Classifier) Epoch {
	return lr.Swap(c.Pipeline())
}

// BGPFeedConfig wires a live route-server session into the runtime.
type BGPFeedConfig struct {
	// FeedConfig names the route server and tunes supervision (backoff,
	// attempts, dialer).
	bgp.FeedConfig
	// MaxEpochs, when > 0, stops the feed after that many promoted
	// snapshots (tests and finite replays; 0 = run until ctx is cancelled).
	MaxEpochs int
}

// ServeBGP runs a supervised BGP feed that rebuilds and promotes the
// classifier on every complete table replay: session flaps mark the runtime
// degraded, each full replay compiles a fresh pipeline off the hot path and
// swaps it in. The feed's metrics and journal events go to the runtime's
// Telemetry. Blocks until ctx is cancelled or the feed stops; run it in its
// own goroutine alongside Run.
func (lr *LiveRuntime) ServeBGP(ctx context.Context, cfg BGPFeedConfig) error {
	epochs := 0
	var rebuildErr error
	err := bgp.NewFeed(cfg.FeedConfig, lr.tel).Run(ctx, func(rib *bgp.RIB) bool {
		// Off the hot path: classification continues on the old epoch
		// (possibly marked stale) while the new pipeline compiles.
		// RebuildAndSwap diffs the snapshot's fingerprint against the
		// current pipeline and reuses the graph/closure/index layers an
		// unchanged topology leaves valid, so steady-state replays promote
		// in a fraction of a cold compile.
		if _, _, err := lr.RebuildAndSwap(rib, lr.members, lr.opts); err != nil {
			rebuildErr = fmt.Errorf("spoofscope: rebuilding pipeline: %w", err)
			return false
		}
		epochs++
		return cfg.MaxEpochs <= 0 || epochs < cfg.MaxEpochs
	}, func(error) { lr.MarkDegraded() })
	if rebuildErr != nil {
		return rebuildErr
	}
	return err
}
