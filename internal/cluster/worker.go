package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/obs"
	"spoofscope/internal/retry"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies the worker in journals and metrics.
	Name string
	// Identity is the stable identity presented in the authenticated hello
	// (default: Name). The coordinator keys shard reclaim on it, so a
	// restarted worker daemon presenting the same identity resumes exactly
	// the shards it held; two live workers must never share one.
	Identity string
	// Secret keys the hello HMAC; it must match the coordinator's.
	Secret []byte
	// Dial opens a connection to the coordinator; the worker redials it
	// with capped, jittered backoff after every link failure.
	Dial func() (net.Conn, error)
	// Opts configures local pipeline compilation. Every worker (and any
	// single-process reference run) must use the same options, or shards
	// would classify under different topologies.
	Opts core.Options
	// HeartbeatInterval and HeartbeatMisses mirror the coordinator's
	// liveness settings (defaults 500ms and 3).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// MaxAttempts caps consecutive failed dials before Run gives up
	// (0 = retry forever). A successful session resets the budget.
	MaxAttempts int
	// InitialBackoff, MaxBackoff, and Seed shape the redial schedule (see
	// retry.New; zero values take the shared defaults, jitter included).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	Seed           int64
	// Telemetry, when non-nil, registers worker metrics and journal events.
	Telemetry *obs.Telemetry
	// PublishHealth installs this worker as the Telemetry's readiness
	// source: ready once it owns at least one shard and has a promoted
	// pipeline. Only one component per Telemetry should publish health —
	// the standalone worker daemon does, embedded workers do not.
	PublishHealth bool
}

// workerShard is one owned shard: the aggregate of its stream and the stream
// position that aggregate incorporates. Both change only under Worker.mu, in
// the one critical section that classifies a flow frame, so a report that
// encodes the aggregate and claims the cursor states one instant.
type workerShard struct {
	id     uint32
	agg    *core.Aggregator
	cursor uint64 // absolute shard-stream position aggregated so far

	// reportedAt is the stream position of the last report sent for this
	// shard on this session (noReport before the first), so a request that
	// finds the shard still there answers nothing instead of encoding the
	// same state again.
	reportedAt uint64
}

// noReport is workerShard.reportedAt before the session's first report; no
// stream reaches it.
const noReport = ^uint64(0)

// Worker owns shards assigned by a coordinator and reports their
// checkpoints. One Worker runs one link at a time; after a link failure it
// discards all local shard state (the coordinator reassigns from the last
// durable report — local progress past it was never acknowledged and must
// not survive, or a handoff could double-count) and redials.
type Worker struct {
	cfg      WorkerConfig
	clock    clock         // times liveness and the propagation spans
	deadline time.Duration // heartbeat interval × misses: the liveness budget
	backoff  *retry.Backoff
	lmu      sync.Mutex // guards link: the read loop stamps it heard, the tick judges it
	link     liveness   // the current session's

	mu       sync.Mutex
	shards   map[uint32]*workerShard
	pipeline *core.Pipeline
	epochSeq uint64
	// verdicts is the verdict buffer every flow frame classifies into; the
	// read loop is its only user.
	verdicts []core.Verdict
	// verdictSpan is the full epoch whose ship → first-verdict stage is
	// still open: set when the epoch compiles, closed by the first flow
	// frame classified under it (nil without one).
	verdictSpan *epochSpan

	reconnects uint64
	giveUps    uint64
	reports    uint64
	flowsIn    uint64

	// Epoch-propagation histograms (ship → local milestone), registered
	// when Telemetry is set.
	epochCompile *obs.Histogram
	epochVerdict *obs.Histogram
}

// epochSpan identifies one epoch-propagation span: the epoch, the trace its
// frame carried and the coordinator's ship time.
type epochSpan struct {
	trace, seq uint64
	ship       time.Time
}

// NewWorker validates the configuration and registers telemetry.
func NewWorker(cfg WorkerConfig) (*Worker, error) { return newWorker(cfg, wallClock{}) }

func newWorker(cfg WorkerConfig, clk clock) (*Worker, error) {
	if cfg.Dial == nil {
		return nil, errors.New("cluster: WorkerConfig.Dial is required")
	}
	cfg.HeartbeatInterval, cfg.HeartbeatMisses = heartbeat(cfg.HeartbeatInterval, cfg.HeartbeatMisses)
	w := &Worker{
		cfg:      cfg,
		clock:    clk,
		deadline: cfg.HeartbeatInterval * time.Duration(cfg.HeartbeatMisses),
		backoff:  retry.New(cfg.InitialBackoff, cfg.MaxBackoff, 0, cfg.Seed),
		shards:   make(map[uint32]*workerShard),
	}
	if tel := cfg.Telemetry; tel != nil {
		w.instrument(tel)
		if cfg.PublishHealth {
			tel.SetHealth(w.health)
		}
	}
	return w, nil
}

// health is the standalone daemon's readiness verdict: ready once the
// worker owns at least one shard and classifies with a promoted pipeline.
// It answers from local state, so /healthz keeps working while the
// coordinator is unreachable.
func (w *Worker) health() obs.Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.pipeline == nil:
		return obs.Health{Status: "unready", Detail: "no routing epoch compiled yet"}
	case len(w.shards) == 0:
		return obs.Health{Status: "unready",
			Detail: fmt.Sprintf("epoch %d compiled, no shards assigned", w.epochSeq)}
	default:
		return obs.Health{Ready: true, Status: "ok",
			Detail: fmt.Sprintf("%d shards at epoch %d", len(w.shards), w.epochSeq)}
	}
}

func (w *Worker) instrument(tel *obs.Telemetry) {
	m := tel.Metrics
	name := obs.Label{Name: "worker", Value: w.label()}
	locked := func(fn func() uint64) func() uint64 {
		return func() uint64 { w.mu.Lock(); defer w.mu.Unlock(); return fn() }
	}
	m.CounterFunc("spoofscope_cluster_worker_reconnects_total",
		"Dial attempts after a lost coordinator link.",
		locked(func() uint64 { return w.reconnects }), name)
	m.CounterFunc("spoofscope_cluster_worker_giveups_total",
		"Terminal exits: the redial budget was exhausted.",
		locked(func() uint64 { return w.giveUps }), name)
	m.CounterFunc("spoofscope_cluster_worker_reports_total",
		"Shard checkpoints sent to the coordinator.",
		locked(func() uint64 { return w.reports }), name)
	m.CounterFunc("spoofscope_cluster_worker_flows_total",
		"Flows classified and aggregated into local shards.",
		locked(func() uint64 { return w.flowsIn }), name)
	m.GaugeFunc("spoofscope_cluster_worker_shards",
		"Shards currently owned.",
		func() float64 { w.mu.Lock(); defer w.mu.Unlock(); return float64(len(w.shards)) }, name)
	for c := 0; c < core.NumTrafficClasses; c++ {
		class := core.TrafficClass(c)
		m.CounterFunc(MetricWorkerClassFlows,
			"Flows classified on this worker, by traffic class, summed over owned shards.",
			locked(func() uint64 {
				var total uint64
				for _, s := range w.shards {
					total += s.agg.Total[class].Flows
				}
				return total
			}), name, obs.Label{Name: "class", Value: class.String()})
	}
	w.epochCompile = m.Histogram(MetricEpochPropagation,
		"Seconds from the coordinator shipping an epoch to a local milestone (by stage).",
		obs.WireBuckets, name, obs.Label{Name: "stage", Value: "compile"})
	w.epochVerdict = m.Histogram(MetricEpochPropagation,
		"Seconds from the coordinator shipping an epoch to a local milestone (by stage).",
		obs.WireBuckets, name, obs.Label{Name: "stage", Value: "first-verdict"})
}

// shardCursorLabels identifies one shard's cursor gauge.
func (w *Worker) shardCursorLabels(shard uint32) []obs.Label {
	return []obs.Label{
		{Name: "worker", Value: w.label()},
		{Name: "shard", Value: strconv.FormatUint(uint64(shard), 10)},
	}
}

func (w *Worker) label() string {
	if w.cfg.Name != "" {
		return w.cfg.Name
	}
	return "worker"
}

func (w *Worker) identity() string {
	if w.cfg.Identity != "" {
		return w.cfg.Identity
	}
	return w.label()
}

// Run dials, serves, and redials until the context is cancelled or the
// attempt budget is exhausted. The error is nil only on context
// cancellation.
func (w *Worker) Run(ctx context.Context) error {
	attempt := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		conn, err := w.cfg.Dial()
		if err != nil {
			attempt++
			if w.cfg.MaxAttempts > 0 && attempt >= w.cfg.MaxAttempts {
				w.mu.Lock()
				w.giveUps++
				w.mu.Unlock()
				w.cfg.Telemetry.Recordf(obs.EventWorkerDead,
					"%s giving up after %d dial attempts: %v", w.label(), attempt, err)
				return fmt.Errorf("cluster: %s: redial budget exhausted: %w", w.label(), err)
			}
			w.mu.Lock()
			w.reconnects++
			w.mu.Unlock()
			w.cfg.Telemetry.Recordf(obs.EventWorkerReconnect,
				"%s dial failed (attempt %d): %v", w.label(), attempt, err)
			if w.backoff.Sleep(ctx, attempt) != nil {
				return nil
			}
			continue
		}
		attempt = 0
		err = w.session(ctx, conn)
		w.teardown()
		if ctx.Err() != nil {
			return nil
		}
		w.cfg.Telemetry.Recordf(obs.EventWorkerReconnect,
			"%s session ended: %v; redialing", w.label(), err)
	}
}

// session serves one coordinator link until it fails. It sets no socket
// deadline: the liveness tick or a failed write ends it with a reason, as a
// cancelled worker (a dead process) does, by closing the link at once.
func (w *Worker) session(ctx context.Context, conn net.Conn) error {
	sctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	l := newLink(conn)
	context.AfterFunc(sctx, l.close)
	end := func(err error) { cancel(err); l.close() }
	go l.writeLoop(end)
	// One report buffer per session, not per shard or per report: the
	// reporter encodes each report straight into it, the writer hands it back
	// once the frame is on the wire. It grows to the largest report and stays.
	l.free <- nil
	send := func(frame []byte) bool {
		select {
		case l.ctrlQ <- frame:
			return true
		case <-sctx.Done():
			return false
		}
	}

	// Every tick applies the liveness rule and, once the hello is queued,
	// heartbeats behind it (helloed is under w.lmu). It never blocks.
	var helloed bool
	now := w.clock.now()
	w.lmu.Lock()
	w.link = liveness{heard: now, moved: now}
	w.lmu.Unlock()
	w.clock.every(w.cfg.HeartbeatInterval, sctx.Done(), func(now time.Time) {
		w.lmu.Lock()
		defer w.lmu.Unlock()
		switch silent, stalled := w.link.judge(now, w.deadline, l); {
		case silent:
			end(fmt.Errorf("cluster: coordinator silent for %v", w.deadline))
		case stalled:
			end(errors.New("cluster: outbound queue stalled behind its writer"))
		case helloed:
			l.ctrl(heartbeatFrame)
		}
	})

	// The reporter encodes and sends shard reports off the read loop, so a
	// report waiting for the writer to hand the buffer back never holds up
	// the frames behind it.
	reportc := make(chan reportMsg, 64) // requests: cursor and checkpoint unset
	go func() {
		for {
			select {
			case r := <-reportc:
				w.report(sctx, r, l.free, send)
			case <-sctx.Done():
				return
			}
		}
	}()

	// Every frame is consumed before the next is read — decoders copy what
	// they keep, and a flow frame is classified and aggregated before
	// applyFlows returns — so the loop reads into one frame buffer and
	// decodes flows into one scratch.
	var body []byte
	var flows flowScratch
	for {
		var err error
		if body, err = readFrame(conn, body); err != nil {
			if cause := context.Cause(sctx); cause != nil {
				return cause // the tick or the writer ended the session
			}
			return err
		}
		w.lmu.Lock()
		w.link.heard = w.clock.now()
		w.lmu.Unlock()
		if !helloed {
			// The coordinator challenges first; the hello answers it with an
			// HMAC binding this connection's nonce to our identity, so a
			// captured hello cannot be replayed on another connection.
			nonce, err := decodeChallenge(body)
			if err != nil {
				return err
			}
			hello := helloMsg{identity: w.identity(), name: w.label()}
			hello.mac = helloMAC(w.cfg.Secret, nonce, hello.identity, hello.name)
			w.lmu.Lock()
			helloed = send(encodeHello(hello))
			w.lmu.Unlock()
			if !helloed {
				return errors.New("cluster: session cancelled")
			}
			continue
		}
		switch body[0] {
		case msgHeartbeat:
		case msgEpoch:
			m, err := decodeEpoch(body)
			if err != nil {
				return err
			}
			if err := w.applyEpoch(m); err != nil {
				return err
			}
		case msgAssign:
			m, err := decodeAssign(body)
			if err != nil {
				return err
			}
			if err := w.applyAssign(m); err != nil {
				return err
			}
		case msgFlows, msgFlowsZ:
			m, err := flows.decode(body)
			if err != nil {
				return err
			}
			if err := w.applyFlows(m); err != nil {
				return err
			}
		case msgReportReq:
			m, err := decodeShardCtrl(body)
			if err != nil {
				return err
			}
			select {
			case reportc <- reportMsg{shard: m.shard, trace: m.trace, reqNanos: m.nanos}:
			default:
				// A full report queue means one is already pending for
				// this link; dropping the request is safe — the
				// coordinator re-asks.
			}
		case msgRevoke:
			m, err := decodeShardCtrl(body)
			if err != nil {
				return err
			}
			w.cfg.Telemetry.Recordf(obs.EventShardRevoke,
				"%s draining shard %d (trace %016x)", w.label(), m.shard, m.trace)
			select {
			case reportc <- reportMsg{shard: m.shard, final: true, trace: m.trace}:
			case <-sctx.Done():
				return errors.New("cluster: session cancelled")
			}
		default:
			return fmt.Errorf("cluster: unexpected message type %d", body[0])
		}
	}
}

// applyEpoch compiles a distributed routing snapshot. A bump (no payload)
// just advances the sequence; a full epoch rebuilds the RIB and recompiles
// the pipeline, reusing layers the previous pipeline's fingerprint still
// covers. Every flow frame read after it classifies under the new pipeline.
// Each shard's next report is sent even if its cursor has not moved: the
// last one states the old epoch.
//
// The sequence is adopted as it comes, even one behind the last session's:
// a coordinator that crashed before its ledger held a distribution resumes
// the sequence before it, and a new session's first frame is that sequence's
// full epoch (hello re-stamps it). Teardown dropped every shard classified
// under the lost one, so the reports state the sequence the merged
// checkpoint does.
func (w *Worker) applyEpoch(m epochMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.epochSeq = m.seq
	for _, s := range w.shards {
		s.reportedAt = noReport
	}
	if !m.full {
		return nil
	}
	rib := bgp.NewRIB()
	for _, a := range m.anns {
		rib.AddAnnouncement(a.Prefix, a.Path)
	}
	p, _, err := core.RebuildPipeline(w.pipeline, rib, m.members, w.cfg.Opts)
	if err != nil {
		return fmt.Errorf("cluster: compiling epoch %d: %w", m.seq, err)
	}
	w.pipeline = p
	w.cfg.Telemetry.Recordf(obs.EventClusterEpoch,
		"%s compiled epoch %d (%d announcements)", w.label(), m.seq, len(m.anns))
	// Epoch-propagation span: the frame carries the coordinator's ship
	// time, so the compile stage is ship → pipeline promoted (assumes
	// same-host or synchronized clocks; skew shows up as outliers, not
	// corruption). The first-verdict stage closes in applyFlows, on the
	// first frame classified under the new pipeline.
	if m.shipNanos > 0 && w.epochCompile != nil {
		span := &epochSpan{trace: m.trace, seq: m.seq, ship: time.Unix(0, m.shipNanos)}
		w.observeSpan(w.epochCompile, span)
		w.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
			"trace %016x epoch %d stage=compile worker=%s (%d announcements)",
			m.trace, m.seq, w.label(), len(m.anns))
		w.verdictSpan = span
	}
	return nil
}

// observeSpan records the time from span's ship to now in h.
func (w *Worker) observeSpan(h *obs.Histogram, span *epochSpan) {
	if d := w.clock.now().Sub(span.ship); d >= 0 {
		h.Observe(d.Seconds())
	}
}

func (w *Worker) applyAssign(m assignMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.shards[m.shard]; ok {
		return fmt.Errorf("cluster: shard %d assigned twice", m.shard)
	}
	if m.bucket <= 0 {
		return fmt.Errorf("cluster: shard %d assigned with series bucket %d", m.shard, m.bucket)
	}
	agg := core.NewAggregator(time.Unix(0, m.startNanos).UTC(), time.Duration(m.bucket))
	if len(m.checkpoint) > 0 {
		cp, err := core.DecodeCheckpointBytes(m.checkpoint)
		if err != nil {
			return fmt.Errorf("cluster: shard %d resume checkpoint: %w", m.shard, err)
		}
		if cp.Processed != m.cursor {
			return fmt.Errorf("cluster: shard %d cursor %d disagrees with checkpoint %d",
				m.shard, m.cursor, cp.Processed)
		}
		agg = cp.Agg
	} else if m.cursor != 0 {
		return fmt.Errorf("cluster: shard %d fresh assign at nonzero cursor %d", m.shard, m.cursor)
	}
	w.shards[m.shard] = &workerShard{id: m.shard, agg: agg, cursor: m.cursor, reportedAt: noReport}
	if tel := w.cfg.Telemetry; tel != nil {
		shard := m.shard
		tel.Metrics.GaugeFunc(MetricWorkerShardCursor,
			"Absolute shard-stream position ingested so far, per owned shard.",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				if s, ok := w.shards[shard]; ok {
					return float64(s.cursor)
				}
				return 0
			}, w.shardCursorLabels(m.shard)...)
	}
	w.cfg.Telemetry.Recordf(obs.EventShardAssign,
		"%s owns shard %d from cursor %d (trace %016x)", w.label(), m.shard, m.cursor, m.trace)
	return nil
}

// applyFlows classifies one flow frame under the current pipeline, folds it
// into its shard's aggregate and advances the shard's cursor, all in one
// critical section. The coordinator ships flows only once a full epoch
// exists, and ships that epoch ahead of them, so a frame with no pipeline to
// classify under is a protocol violation.
func (w *Worker) applyFlows(m flowsMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.shards[m.shard]
	switch {
	case !ok:
		return fmt.Errorf("cluster: flows for unowned shard %d", m.shard)
	case w.pipeline == nil:
		return fmt.Errorf("cluster: flows for shard %d before any routing epoch", m.shard)
	case s.cursor != m.base:
		return fmt.Errorf("cluster: shard %d stream position %d, batch base %d",
			m.shard, s.cursor, m.base)
	}
	w.verdicts = slices.Grow(w.verdicts[:0], len(m.flows))[:len(m.flows)]
	w.pipeline.ClassifyBatch(m.flows, w.verdicts)
	s.agg.AddBatch(m.flows, w.verdicts)
	s.cursor += uint64(len(m.flows))
	w.flowsIn += uint64(len(m.flows))
	if span := w.verdictSpan; span != nil {
		w.verdictSpan = nil
		w.observeSpan(w.epochVerdict, span)
		w.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
			"trace %016x epoch %d stage=first-verdict worker=%s", span.trace, span.seq, w.label())
	}
	return nil
}

// report sends one shard's checkpoint, unless the request is not final and
// the shard is still where this session's last report left it. The
// checkpoint and the position it claims are read under w.mu, which every
// flow frame holds from classification to the cursor's advance, so the
// report's cursor is exactly the stream prefix its aggregate incorporates.
// A final report — the revoke drain — also gives the shard up.
//
// The checkpoint is encoded straight into the session's report buffer,
// behind the frame head: the bytes are written once, where they ship from.
func (w *Worker) report(sctx context.Context, req reportMsg, bufs chan []byte, send func([]byte) bool) {
	var frame []byte
	select {
	case frame = <-bufs:
	case <-sctx.Done():
		return
	}
	w.mu.Lock()
	s, ok := w.shards[req.shard]
	// A cancelled session's reporter may run past its teardown; the shards
	// it would find belong to the next session.
	if sctx.Err() != nil || !ok || !req.final && s.cursor == s.reportedAt {
		w.mu.Unlock()
		bufs <- frame
		return
	}
	// The report echoes the request's trace and send timestamp, so the
	// coordinator ties it to the span that asked and measures the round-trip
	// on its own clock. The epoch fields state what the merged checkpoint
	// does; a shard's resume reads only the aggregate and the cursor.
	cursor := s.cursor
	frame = core.AppendCheckpoint(beginReport(frame, req), &core.Checkpoint{
		Ingested:  cursor,
		Queued:    cursor,
		Processed: cursor,
		Epoch:     core.Epoch(w.epochSeq),
		Swaps:     w.epochSeq,
		Agg:       s.agg,
	})
	s.reportedAt = cursor
	w.reports++
	if req.final {
		delete(w.shards, req.shard)
	}
	w.mu.Unlock()
	if req.final {
		if tel := w.cfg.Telemetry; tel != nil {
			tel.Metrics.Unregister(MetricWorkerShardCursor, w.shardCursorLabels(req.shard)...)
		}
	}
	send(sealReport(frame, cursor)) // the writer hands the buffer back
}

// teardown discards every shard after a session loss. Unreported progress
// is intentionally dropped: only durable reports count, and the
// coordinator replays everything past them to the next owner.
func (w *Worker) teardown() {
	w.mu.Lock()
	shards := w.shards
	w.shards = make(map[uint32]*workerShard)
	w.mu.Unlock()
	if tel := w.cfg.Telemetry; tel != nil {
		for _, s := range shards {
			tel.Metrics.Unregister(MetricWorkerShardCursor, w.shardCursorLabels(s.id)...)
		}
	}
}
