package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
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

// workerShard is one owned shard: a full single-process runtime draining
// its slice of the traffic.
type workerShard struct {
	id     uint32
	rt     *core.Runtime
	cursor uint64 // absolute shard-stream position received so far (under Worker.mu)
	drain  chan struct{}

	// reportedAt is the stream position of the last report sent for this
	// shard on this session (noReport before the first), so a request that
	// finds the shard still there answers nothing instead of encoding the
	// same state again (under Worker.mu).
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
	clock    clock         // times liveness, the report give-up and the propagation spans
	deadline time.Duration // heartbeat interval × misses: the liveness budget
	backoff  *retry.Backoff
	lmu      sync.Mutex // guards link: the read loop stamps it heard, the tick judges it
	link     liveness   // the current session's

	mu       sync.Mutex
	shards   map[uint32]*workerShard
	pipeline *core.Pipeline
	epochSeq uint64

	reconnects uint64
	giveUps    uint64
	reports    uint64
	flowsIn    uint64

	// Epoch-propagation histograms (ship → local milestone), registered
	// when Telemetry is set.
	epochCompile *obs.Histogram
	epochVerdict *obs.Histogram

	// enqueueHook, set by tests only, runs on the read loop between a flow
	// frame being counted into its shard's cursor and being queued on the
	// shard's runtime — the window a report must not misread.
	enqueueHook func(shard uint32)
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
		"Quiescent shard checkpoints sent to the coordinator.",
		locked(func() uint64 { return w.reports }), name)
	m.CounterFunc("spoofscope_cluster_worker_flows_total",
		"Flows ingested into local shard runtimes.",
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
					total += s.rt.ClassTotals()[class].Flows
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

	// The reporter serializes quiescent checkpoint reports off the read
	// loop, so a slow drain never starves heartbeat reads.
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
	// they keep, and the shard runtime copies flows into its ring — so the
	// loop reads into one frame buffer and decodes flows into one scratch.
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
			if err := w.applyEpoch(sctx, m); err != nil {
				return err
			}
		case msgAssign:
			m, err := decodeAssign(body)
			if err != nil {
				return err
			}
			if err := w.applyAssign(sctx, m); err != nil {
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
// covers, then swaps it into every owned shard runtime.
func (w *Worker) applyEpoch(sctx context.Context, m epochMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.epochSeq = m.seq
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
	for _, s := range w.shards {
		s.rt.Swap(p)
	}
	w.cfg.Telemetry.Recordf(obs.EventClusterEpoch,
		"%s compiled epoch %d (%d announcements)", w.label(), m.seq, len(m.anns))
	// Epoch-propagation span: the frame carries the coordinator's ship
	// time, so the compile stage is ship → pipeline promoted (assumes
	// same-host or synchronized clocks; skew shows up as outliers, not
	// corruption). The first-verdict stage completes asynchronously when
	// a shard classifies its first flow under the new pipeline.
	if m.shipNanos > 0 && w.epochCompile != nil {
		ship := time.Unix(0, m.shipNanos)
		if d := w.clock.now().Sub(ship); d >= 0 {
			w.epochCompile.Observe(d.Seconds())
		}
		w.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
			"trace %016x epoch %d stage=compile worker=%s (%d announcements)",
			m.trace, m.seq, w.label(), len(m.anns))
		var baseline uint64
		for _, s := range w.shards {
			for _, c := range s.rt.ClassTotals() {
				baseline += c.Flows
			}
		}
		go w.watchFirstVerdict(sctx, m.trace, m.seq, ship, baseline)
	}
	return nil
}

// watchFirstVerdict polls until some shard's classified-flow total moves
// past the count at epoch promotion — the first verdict rendered under the
// new pipeline — then observes the ship→first-verdict stage and exits. A
// newer epoch or session loss abandons the watch.
func (w *Worker) watchFirstVerdict(sctx context.Context, trace, seq uint64, ship time.Time, baseline uint64) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-sctx.Done():
			return
		}
		w.mu.Lock()
		if w.epochSeq != seq {
			w.mu.Unlock()
			return
		}
		var total uint64
		for _, s := range w.shards {
			for _, c := range s.rt.ClassTotals() {
				total += c.Flows
			}
		}
		w.mu.Unlock()
		if total > baseline {
			if d := w.clock.now().Sub(ship); d >= 0 && w.epochVerdict != nil {
				w.epochVerdict.Observe(d.Seconds())
			}
			w.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
				"trace %016x epoch %d stage=first-verdict worker=%s", trace, seq, w.label())
			return
		}
	}
}

func (w *Worker) applyAssign(sctx context.Context, m assignMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.shards[m.shard]; ok {
		return fmt.Errorf("cluster: shard %d assigned twice", m.shard)
	}
	rcfg := core.RuntimeConfig{
		Pipeline: w.pipeline,
		Start:    time.Unix(0, m.startNanos).UTC(),
		Bucket:   time.Duration(m.bucket),
	}
	if len(m.checkpoint) > 0 {
		cp, err := core.DecodeCheckpointBytes(m.checkpoint)
		if err != nil {
			return fmt.Errorf("cluster: shard %d resume checkpoint: %w", m.shard, err)
		}
		if cp.Processed != m.cursor {
			return fmt.Errorf("cluster: shard %d cursor %d disagrees with checkpoint %d",
				m.shard, m.cursor, cp.Processed)
		}
		rcfg.Resume = cp
	} else if m.cursor != 0 {
		return fmt.Errorf("cluster: shard %d fresh assign at nonzero cursor %d", m.shard, m.cursor)
	}
	rt, err := core.NewRuntime(rcfg)
	if err != nil {
		return fmt.Errorf("cluster: shard %d runtime: %w", m.shard, err)
	}
	s := &workerShard{id: m.shard, rt: rt, cursor: m.cursor, drain: make(chan struct{}), reportedAt: noReport}
	w.shards[m.shard] = s
	// One drain goroutine per shard runtime: shards outnumber workers, so
	// the shard is already the unit of parallelism, and a sole drain worker
	// aggregates every batch in place without a private spill shard.
	go func() {
		defer close(s.drain)
		s.rt.Run(sctx, nil)
	}()
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

func (w *Worker) applyFlows(m flowsMsg) error {
	w.mu.Lock()
	s, ok := w.shards[m.shard]
	if !ok {
		w.mu.Unlock()
		return fmt.Errorf("cluster: flows for unowned shard %d", m.shard)
	}
	if s.cursor != m.base {
		w.mu.Unlock()
		return fmt.Errorf("cluster: shard %d stream position %d, batch base %d",
			m.shard, s.cursor, m.base)
	}
	s.cursor += uint64(len(m.flows))
	w.flowsIn += uint64(len(m.flows))
	w.mu.Unlock()
	if w.enqueueHook != nil {
		w.enqueueHook(m.shard)
	}
	// IngestBatchWait applies backpressure outside the lock: a full queue
	// slows the link read loop, which slows the coordinator — never drops.
	// The whole frame queues in one call (one consumer wake per frame).
	if !s.rt.IngestBatchWait(m.flows) {
		return fmt.Errorf("cluster: shard %d runtime closed mid-ingest", m.shard)
	}
	return nil
}

// report sends a quiescent checkpoint for one shard, retrying until the
// drain catches up. Non-final reports give up quietly after a bounded wait
// (the coordinator re-asks); a final report — the revoke drain — keeps
// trying until the session dies, because the coordinator has stopped the
// shard's stream and is waiting on it.
//
// The position a report claims is the snapshot's own Processed count, read
// under the runtime's lock together with the state it encodes. The shard
// runtime is fed only by this shard's stream, never sheds and is resumed at
// Processed == cursor, so Processed is the stream position the aggregate
// incorporates. The read loop's count of frames received (workerShard.cursor)
// runs ahead of it while a frame is between the socket and the queue, and a
// report that claimed that count would ship a checkpoint short of it.
//
// The checkpoint is encoded straight into the session's report buffer,
// behind the frame head: the bytes are written once, where they ship from.
func (w *Worker) report(sctx context.Context, req reportMsg, bufs chan []byte, send func([]byte) bool) {
	w.mu.Lock()
	s, ok := w.shards[req.shard]
	reportedAt := noReport
	if ok {
		reportedAt = s.reportedAt
	}
	w.mu.Unlock()
	if !ok {
		return
	}
	var frame []byte
	select {
	case frame = <-bufs:
	case <-sctx.Done():
		return
	}
	deadline := w.clock.now().Add(w.deadline)
	for sctx.Err() == nil {
		var cursor uint64
		frame = beginReport(frame, req)
		err := s.rt.Snapshot(func(cp *core.Checkpoint) error {
			cursor = cp.Processed
			if req.final || cursor != reportedAt {
				frame = core.AppendCheckpoint(frame, cp)
			}
			return nil
		})
		if err == nil && len(frame) == frameHeadLen+reportHeadLen {
			break // quiescent where the last report left the shard: nothing new to say
		}
		if err == nil {
			// The report echoes the request's trace and send timestamp, so
			// the coordinator ties it to the span that asked and measures
			// the round-trip on its own clock.
			if !send(sealReport(frame, cursor)) {
				return
			}
			w.mu.Lock()
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
				s.rt.Close()
				<-s.drain
			}
			return // the writer hands the buffer back
		}
		if !req.final && w.clock.now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	bufs <- frame
}

// teardown discards every shard after a session loss. Unreported progress
// is intentionally dropped: only durable reports count, and the
// coordinator replays everything past them to the next owner.
func (w *Worker) teardown() {
	w.mu.Lock()
	shards := w.shards
	w.shards = make(map[uint32]*workerShard)
	w.mu.Unlock()
	for _, s := range shards {
		if tel := w.cfg.Telemetry; tel != nil {
			tel.Metrics.Unregister(MetricWorkerShardCursor, w.shardCursorLabels(s.id)...)
		}
		s.rt.Close()
		<-s.drain
	}
}
