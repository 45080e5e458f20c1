package cluster

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
	"spoofscope/internal/retry"
)

// Config configures a Coordinator.
type Config struct {
	// Shards is the number of ingress-member shards (required, > 0). More
	// shards than workers is normal: shards are the unit of handoff, so a
	// finer grain rebalances more evenly.
	Shards int
	// Members is the IXP member table shipped to workers with every full
	// epoch — workers compile their pipelines from it locally.
	Members []core.MemberInfo
	// Start and Bucket configure every shard aggregator's time series; one
	// shared time base is what makes the merged checkpoint canonical.
	Start  time.Time
	Bucket time.Duration
	// HeartbeatInterval paces liveness traffic in both directions (default
	// 500ms); HeartbeatMisses heartbeats without any frame declare a link
	// dead (default 3).
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// FlowBatch bounds flows per wire frame (default 64).
	FlowBatch int
	// Compress deflates flow batches on the wire — worth it on real
	// networks where frames cross a NIC, not for in-process pipes.
	Compress bool
	// Secret authenticates workers: every hello must carry an HMAC over
	// the connection's challenge nonce keyed by this secret. An empty
	// secret still runs the handshake (the MAC is computed over the empty
	// key), so the protocol is uniform; it just authenticates nothing.
	Secret []byte
	// MaxConns caps concurrent worker connections, counting ones that have
	// not said hello yet (default 256). Excess connections are closed and
	// counted, so an accept flood cannot exhaust the coordinator.
	MaxConns int
	// HelloTimeout bounds the unauthenticated window: a connection that
	// has not completed the challenge/hello exchange within it is dropped
	// (default: the heartbeat deadline).
	HelloTimeout time.Duration
	// LedgerPath, when set, persists the shard ledger — per-shard cursors,
	// last durable worker checkpoints, replay tails, plus the current
	// epoch — via write-temp+rename, checkpointed on every report merge
	// and on a timer. A coordinator constructed with an existing ledger
	// resumes from it: shards restart orphaned at their durable state and
	// redialing workers reclaim them by identity.
	LedgerPath string
	// Resume, when non-nil, is a baseline checkpoint folded into every
	// Checkpoint produced by this coordinator — how a cluster run
	// continues from a prior run's (cluster or single-process) checkpoint.
	// The caller must skip the flows the baseline already incorporates.
	Resume *core.Checkpoint
	// Telemetry, when non-nil, registers cluster metrics, records shard
	// lifecycle events in the journal, and installs the readiness source:
	// unready before the first epoch, degraded while any shard is orphaned
	// (its flows buffer until a worker takes it over), ok otherwise.
	Telemetry *obs.Telemetry
}

func (c *Config) interval() time.Duration {
	if c.HeartbeatInterval <= 0 {
		return 500 * time.Millisecond
	}
	return c.HeartbeatInterval
}

func (c *Config) misses() int {
	if c.HeartbeatMisses <= 0 {
		return 3
	}
	return c.HeartbeatMisses
}

func (c *Config) deadline() time.Duration {
	return c.interval() * time.Duration(c.misses())
}

func (c *Config) flowBatch() int {
	if c.FlowBatch <= 0 {
		return 64
	}
	return c.FlowBatch
}

func (c *Config) maxConns() int {
	if c.MaxConns <= 0 {
		return 256
	}
	return c.MaxConns
}

func (c *Config) helloTimeout() time.Duration {
	if c.HelloTimeout <= 0 {
		return c.deadline()
	}
	return c.HelloTimeout
}

// outboundDepth bounds a link's outbound frame queue. A worker that stops
// reading for long enough to back this up is indistinguishable from a dead
// one, and is treated as such rather than stalling the whole cluster.
const outboundDepth = 4096

// freeFrames bounds a link's free list of flow-frame buffers (link.free).
const freeFrames = 64

// link is one connected worker from the coordinator's side.
type link struct {
	id    string // authenticated stable identity (empty until hello)
	name  string
	conn  net.Conn
	nonce []byte // this connection's challenge nonce
	// Two outbound planes, both of wire-ready frames — length prefix in place,
	// one Write each (see beginFrame). out carries flow batches plus the
	// revoke frame (which must stay ordered behind its shard's flows); ctrl
	// carries everything else — challenge, heartbeat, epoch, assign, report
	// request — and the writer drains it first, so a queue full of
	// in-flight flow batches can never starve the control plane into
	// killing a healthy link. Control frames may therefore overtake flow
	// frames; every control message is either flow-order-independent
	// (heartbeat, report request — reports are cursor-based) or ordered
	// only against other control frames (epoch before assign), which FIFO
	// within ctrl preserves.
	out  chan []byte
	ctrl chan []byte
	// free is where the writer hands flow-frame buffers back once they are on
	// the wire, and where flushToOwnerLocked takes the next one from. Frames
	// of one link are one size (the flow batch), so a returned buffer fits the
	// next frame exactly. Sized to the frames in flight while the writer keeps
	// up; a writer further behind than that drops the excess to the GC rather
	// than pin a full outbound queue's worth (~100 MB at the default batch).
	free chan []byte

	// written counts frames the write loop has drained to the conn — the
	// liveness signal that distinguishes an outbound queue full of in-flight
	// flow batches (flow control: the peer is reading, let it drain) from one
	// backed up behind a peer that stopped reading. beatWritten/beatMisses
	// track it across heartbeats (under Coordinator.mu).
	written     atomic.Uint64
	beatWritten uint64
	beatMisses  int

	// lastRead is the unix-nano timestamp of the last frame read from this
	// link — the per-worker "last heartbeat" the fleet status API reports.
	lastRead atomic.Int64
	// epochSeq is the sequence of the last epoch frame enqueued on this link
	// (under Coordinator.mu), the fleet status's per-worker epoch.
	epochSeq uint64

	released  bool // conn-count slot returned (under Coordinator.mu)
	closeOnce sync.Once
	dead      chan struct{}
}

// recycle offers a flow-frame buffer for reuse; a full free list drops it.
func (l *link) recycle(frame []byte) {
	select {
	case l.free <- frame:
	default:
	}
}

func (l *link) label() string {
	if l.name != "" {
		return l.name
	}
	return "worker"
}

// shardState is the coordinator's book-keeping for one shard. The cursor
// invariant that makes handoff exactly-once:
//
//	ackBase <= sentCursor <= cursor
//	replay == the flows [ackBase, cursor)
//
// lastReport is the checkpoint that incorporates exactly the first ackBase
// flows of the shard stream. Reassignment sends lastReport plus the replay
// buffer, so the new owner reconstructs precisely the flows the dead owner
// never durably reported — nothing lost, nothing double-counted.
type shardState struct {
	id        uint32
	owner     *link
	lastOwner string // identity of the most recent owner; reclaim key
	revoking  bool
	// revokePending marks a revoke frame that could not be enqueued because
	// the owner's outbound queue was full of earlier flow batches. The revoke
	// must stay ordered behind those batches (workers fatally reject flows
	// for a shard they no longer own), so it waits on the same queue and the
	// ticker retries it instead of killing a healthy, draining link.
	revokePending bool
	cursor        uint64
	sentCursor    uint64
	ackBase       uint64
	lastReport    []byte
	replay        []ipfix.Flow
	// span tracks an in-flight ownership transfer (revoke/death →
	// reassign → first report from the new owner) for the handoff
	// histograms and journal; nil when ownership is settled.
	span *handoffSpan
}

// Coordinator owns the flow source, routes flows to shard owners, and
// folds worker reports back into one canonical checkpoint.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	shards   []*shardState
	links    map[*link]struct{}
	epochSeq uint64
	lastFP   bgp.Fingerprint
	haveFP   bool
	// epochFull is the latest full epoch's frame body, re-stamped and
	// replayed to late joiners and kept in the ledger.
	epochFull []byte
	closed    bool
	degraded  bool
	// deflater is the compressed flow frames' encode scratch (under mu, like
	// every flush).
	deflater flowDeflater

	// conns counts every live connection, authenticated or not, against
	// the MaxConns cap.
	conns int

	// Observability plane (observe.go): trace-ID minting state and the
	// coordinator-side span histograms (nil without Telemetry).
	traceBase       uint64
	traceSeq        uint64
	handoffReassign *obs.Histogram
	handoffResumed  *obs.Histogram
	rttHist         *obs.Histogram

	// ledger machinery: snapshots encoded under mu are handed to a
	// dedicated writer goroutine (latest wins — an overwritten pending
	// snapshot is strictly older than its replacement), so file IO never
	// runs under the coordinator lock. SyncLedger bypasses the queue.
	ledgerCh   chan []byte
	ledgerStop chan struct{}
	ledgerDone chan struct{}
	ledgerWMu  sync.Mutex // serializes actual file writes

	// counters (under mu; exposed as func-backed metrics)
	flowsRouted      uint64
	handoffs         uint64
	rebalances       uint64
	reclaims         uint64
	hbMisses         uint64
	staleReports     uint64
	reportMismatches uint64
	epochsSent       uint64
	checkpoints      uint64
	authFailures     uint64
	identityRejects  uint64
	connsRejected    uint64
	acceptErrors     uint64
	ledgerWrites     uint64
	ledgerErrors     uint64
	ledgerBytes      uint64
}

// NewCoordinator validates the configuration and registers telemetry. With
// LedgerPath set and an existing ledger file present, the coordinator
// resumes from it: every shard restarts orphaned at its last durable state
// and Stats().FlowsRouted reports the restored feed position the upstream
// replayer must resume from.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	var lg *ledger
	if cfg.LedgerPath != "" {
		var err error
		lg, err = loadLedgerFile(cfg.LedgerPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("cluster: loading ledger %s: %w", cfg.LedgerPath, err)
		}
	}
	return newCoordinator(cfg, lg)
}

// newCoordinator builds a coordinator, resuming from lg when non-nil (the
// standby path passes its warm-tailed copy here).
func newCoordinator(cfg Config, lg *ledger) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("cluster: Shards must be > 0")
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Hour
	}
	c := &Coordinator{
		cfg:       cfg,
		links:     make(map[*link]struct{}),
		traceBase: newTraceBase(),
	}
	c.cond = sync.NewCond(&c.mu)
	c.shards = make([]*shardState, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shardState{id: uint32(i)}
	}
	if lg != nil {
		if err := lg.validate(&cfg); err != nil {
			return nil, err
		}
		c.epochSeq = lg.epochSeq
		c.haveFP = lg.haveFP
		c.lastFP = lg.lastFP
		c.epochFull = lg.epochFull
		c.flowsRouted = lg.flowsRouted
		for i := range lg.shards {
			ls := &lg.shards[i]
			s := c.shards[i]
			s.cursor = ls.cursor
			s.sentCursor = ls.ackBase
			s.ackBase = ls.ackBase
			s.lastOwner = ls.lastOwner
			s.lastReport = ls.lastReport
			s.replay = ls.replay
		}
		c.cfg.Telemetry.Recordf(obs.EventLedgerResume,
			"resumed shard ledger: epoch %d, %d flows routed, %d in replay",
			lg.epochSeq, lg.flowsRouted, c.replayLenLocked())
	}
	if cfg.LedgerPath != "" {
		c.ledgerCh = make(chan []byte, 1)
		c.ledgerStop = make(chan struct{})
		c.ledgerDone = make(chan struct{})
		go c.ledgerWriter()
	}
	if tel := cfg.Telemetry; tel != nil {
		c.instrument(tel)
	}
	go c.tick()
	return c, nil
}

func (c *Coordinator) replayLenLocked() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.replay)
	}
	return n
}

// snapshotLedgerLocked encodes the durable state under mu.
func (c *Coordinator) snapshotLedgerLocked() []byte {
	lg := &ledger{
		startNanos:  c.cfg.Start.UnixNano(),
		bucket:      int64(c.cfg.Bucket),
		epochSeq:    c.epochSeq,
		haveFP:      c.haveFP,
		lastFP:      c.lastFP,
		epochFull:   c.epochFull,
		flowsRouted: c.flowsRouted,
		shards:      make([]ledgerShard, len(c.shards)),
	}
	for i, s := range c.shards {
		lg.shards[i] = ledgerShard{
			cursor:     s.cursor,
			ackBase:    s.ackBase,
			lastOwner:  s.lastOwner,
			lastReport: s.lastReport,
			replay:     s.replay,
		}
	}
	return encodeLedger(lg)
}

// saveLedgerLocked hands the current snapshot to the writer goroutine,
// replacing any pending (older) one. No-op without a LedgerPath.
func (c *Coordinator) saveLedgerLocked() {
	if c.ledgerCh == nil || c.closed {
		return
	}
	snap := c.snapshotLedgerLocked()
	for {
		select {
		case c.ledgerCh <- snap:
			return
		default:
		}
		select {
		case <-c.ledgerCh: // drop the stale pending snapshot
		default:
		}
	}
}

func (c *Coordinator) ledgerWriter() {
	defer close(c.ledgerDone)
	for {
		select {
		case snap := <-c.ledgerCh:
			c.writeLedger(snap)
		case <-c.ledgerStop:
			// Drain a final pending snapshot so a graceful Close does not
			// discard the freshest state it was already handed.
			select {
			case snap := <-c.ledgerCh:
				c.writeLedger(snap)
			default:
			}
			return
		}
	}
}

// writeLedger persists one snapshot, counting and journaling the outcome.
func (c *Coordinator) writeLedger(snap []byte) error {
	c.ledgerWMu.Lock()
	err := writeLedgerFile(c.cfg.LedgerPath, snap)
	c.ledgerWMu.Unlock()
	c.mu.Lock()
	if err != nil {
		c.ledgerErrors++
	} else {
		c.ledgerWrites++
		c.ledgerBytes = uint64(len(snap))
	}
	c.mu.Unlock()
	if err != nil {
		c.cfg.Telemetry.Recordf(obs.EventLedgerError, "ledger write failed: %v", err)
	}
	return err
}

// SyncLedger writes the shard ledger synchronously — the durability point
// a graceful shutdown (or a test simulating one) can wait on. Without a
// LedgerPath it is a no-op.
func (c *Coordinator) SyncLedger() error {
	if c.cfg.LedgerPath == "" {
		return nil
	}
	c.mu.Lock()
	snap := c.snapshotLedgerLocked()
	c.mu.Unlock()
	if err := c.writeLedger(snap); err != nil {
		return err
	}
	c.cfg.Telemetry.Recordf(obs.EventLedgerWrite, "ledger synced (%d bytes)", len(snap))
	return nil
}

// EpochSeq reports the current routing epoch sequence — nonzero after a
// DistributeEpoch or a ledger resume that restored one, in which case the
// restored full epoch is replayed to joining workers and the caller need
// not redistribute an unchanged RIB.
func (c *Coordinator) EpochSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epochSeq
}

func (c *Coordinator) instrument(tel *obs.Telemetry) {
	m := tel.Metrics
	locked := func(fn func() uint64) func() uint64 {
		return func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return fn() }
	}
	m.CounterFunc("spoofscope_cluster_flows_routed_total",
		"Flows routed to a shard by the coordinator.",
		locked(func() uint64 { return c.flowsRouted }))
	m.CounterFunc("spoofscope_cluster_handoffs_total",
		"Shard handoffs forced by a dead worker link.",
		locked(func() uint64 { return c.handoffs }))
	m.CounterFunc("spoofscope_cluster_rebalances_total",
		"Graceful shard moves triggered by membership changes.",
		locked(func() uint64 { return c.rebalances }))
	m.CounterFunc("spoofscope_cluster_heartbeat_misses_total",
		"Links declared dead after the heartbeat deadline passed silent.",
		locked(func() uint64 { return c.hbMisses }))
	m.CounterFunc("spoofscope_cluster_stale_reports_total",
		"Shard reports rejected because the sender no longer owns the shard.",
		locked(func() uint64 { return c.staleReports }))
	m.CounterFunc("spoofscope_cluster_report_mismatches_total",
		"Shard reports rejected because their cursor disagrees with their checkpoint.",
		locked(func() uint64 { return c.reportMismatches }))
	m.CounterFunc("spoofscope_cluster_epochs_total",
		"Routing-state epochs distributed to workers.",
		locked(func() uint64 { return c.epochsSent }))
	m.CounterFunc("spoofscope_cluster_auth_failures_total",
		"Connections dropped for a bad, truncated, or replayed hello.",
		locked(func() uint64 { return c.authFailures }))
	m.CounterFunc("spoofscope_cluster_identity_rejects_total",
		"Hellos rejected because their identity is already connected.",
		locked(func() uint64 { return c.identityRejects }))
	m.CounterFunc("spoofscope_cluster_conns_rejected_total",
		"Connections closed at the MaxConns cap.",
		locked(func() uint64 { return c.connsRejected }))
	m.CounterFunc("spoofscope_cluster_accept_errors_total",
		"Accept failures survived by the serve loop.",
		locked(func() uint64 { return c.acceptErrors }))
	m.CounterFunc("spoofscope_cluster_reclaims_total",
		"Orphaned shards reclaimed by their last owner's identity.",
		locked(func() uint64 { return c.reclaims }))
	m.CounterFunc("spoofscope_cluster_ledger_writes_total",
		"Shard-ledger snapshots durably written.",
		locked(func() uint64 { return c.ledgerWrites }))
	m.CounterFunc("spoofscope_cluster_ledger_errors_total",
		"Shard-ledger write failures.",
		locked(func() uint64 { return c.ledgerErrors }))
	m.GaugeFunc("spoofscope_cluster_ledger_bytes",
		"Size of the last shard-ledger snapshot written.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.ledgerBytes) })
	m.GaugeFunc("spoofscope_cluster_workers",
		"Live worker links.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.links)) })
	m.GaugeFunc("spoofscope_cluster_shards_orphaned",
		"Shards with no owner; their flows buffer in the replay queue.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.orphanedLocked()) })
	m.GaugeFunc("spoofscope_cluster_replay_flows",
		"Flows buffered awaiting a durable worker report.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.replayLenLocked()) })
	c.handoffReassign = m.Histogram(MetricHandoff,
		"Shard handoff stage latency: revoke/death to the named stage.",
		obs.WireBuckets, obs.Label{Name: "stage", Value: "reassign"})
	c.handoffResumed = m.Histogram(MetricHandoff,
		"Shard handoff stage latency: revoke/death to the named stage.",
		obs.WireBuckets, obs.Label{Name: "stage", Value: "resumed"})
	c.rttHist = m.Histogram(MetricReportRTT,
		"Report-request round-trip, coordinator clock both ends.",
		obs.WireBuckets)
	tel.PublishJSON("/cluster", func() any { return c.FleetStatus() })
	tel.SetHealth(func() obs.Health {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch {
		case c.epochSeq == 0:
			return obs.Health{Status: "unready", Detail: "no routing epoch distributed yet"}
		case c.orphanedLocked() > 0:
			return obs.Health{Ready: true, Status: "degraded",
				Detail: fmt.Sprintf("%d shards orphaned; flows buffering", c.orphanedLocked())}
		case len(c.links) == 0:
			return obs.Health{Ready: true, Status: "degraded", Detail: "no live workers"}
		default:
			return obs.Health{Ready: true, Status: "ok"}
		}
	})
}

func (c *Coordinator) orphanedLocked() int {
	n := 0
	for _, s := range c.shards {
		if s.owner == nil && s.cursor > s.ackBase {
			n++
		}
	}
	return n
}

// tick flushes buffered flow batches and sends heartbeats on every link at
// the heartbeat cadence, until Close.
func (c *Coordinator) tick() {
	t := time.NewTicker(c.cfg.interval())
	defer t.Stop()
	n := 0
	for range t.C {
		n++
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		for _, s := range c.shards {
			c.flushShardLocked(s)
		}
		for l := range c.links {
			if c.sendCtrlLocked(l, heartbeatFrame) {
				l.beatWritten, l.beatMisses = l.written.Load(), 0
				continue
			}
			// Queue full: fatal only if the writer has made no progress for
			// the full miss budget. A draining queue is backpressure, not
			// death — and the flow frames themselves feed the worker's read
			// deadline, so skipping the beat costs nothing.
			if w := l.written.Load(); w != l.beatWritten {
				l.beatWritten, l.beatMisses = w, 0
				continue
			}
			if l.beatMisses++; l.beatMisses >= c.cfg.misses() {
				go c.killLink(l, "outbound queue full with the writer stalled")
			}
		}
		// Every eighth beat, solicit reports so replay buffers stay bounded
		// between explicit checkpoints, and sync the ledger: the timed sync
		// catches ingest-only progress (routed flows buffering for orphaned
		// shards) between report merges, which sync regardless.
		if n%8 == 0 {
			c.requestReportsLocked()
			c.saveLedgerLocked()
		}
		c.mu.Unlock()
	}
}

// Serve accepts worker connections until the listener closes or the
// coordinator shuts down. Transient accept failures (including injected
// ones — the loop is faultnet-Listener compatible) are counted, journaled,
// and retried with capped backoff; only a closed listener or coordinator
// ends the loop.
func (c *Coordinator) Serve(ln net.Listener) error {
	bo := retry.New(10*time.Millisecond, time.Second, 0, 0)
	fails := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			c.mu.Lock()
			closed := c.closed
			c.acceptErrors++
			c.mu.Unlock()
			if closed {
				return nil
			}
			fails++
			c.cfg.Telemetry.Recordf(obs.EventAcceptError,
				"accept failed (attempt %d): %v", fails, err)
			time.Sleep(bo.Next(fails))
			continue
		}
		fails = 0
		c.AddConn(conn)
	}
}

// AddConn hands one worker connection to the coordinator, which owns it
// from here on. The connection is challenged immediately; the link joins
// the cluster only once an authenticated hello arrives within the hello
// timeout. Connections beyond the MaxConns cap are closed on the spot.
func (c *Coordinator) AddConn(conn net.Conn) {
	nonce := make([]byte, challengeNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		// No entropy, no auth: refuse rather than accept an unprovable peer.
		conn.Close()
		return
	}
	l := &link{
		conn: conn, nonce: nonce,
		out:  make(chan []byte, outboundDepth),
		ctrl: make(chan []byte, outboundDepth),
		free: make(chan []byte, freeFrames),
		dead: make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed || c.conns >= c.cfg.maxConns() {
		rejected := !c.closed
		if rejected {
			c.connsRejected++
		}
		c.mu.Unlock()
		if rejected {
			c.cfg.Telemetry.Recordf(obs.EventConnRejected,
				"connection closed at the %d-conn cap", c.cfg.maxConns())
		}
		conn.Close()
		return
	}
	c.conns++
	c.mu.Unlock()
	l.ctrl <- encodeChallenge(nonce) // fresh queue; never blocks
	go c.writeLoop(l)
	go c.readLoop(l)
}

// authFail drops an unauthenticated connection, counting and journaling
// the reason.
func (c *Coordinator) authFail(l *link, identity bool, reason string) {
	c.mu.Lock()
	if identity {
		c.identityRejects++
	} else {
		c.authFailures++
	}
	c.mu.Unlock()
	c.cfg.Telemetry.Recordf(obs.EventAuthFailure, "%s; dropping connection", reason)
	c.killLink(l, reason)
}

func (c *Coordinator) writeLoop(l *link) {
	// write sends one frame; a flow frame's buffer goes back on the free list.
	write := func(frame []byte) bool {
		err := l.conn.SetWriteDeadline(time.Now().Add(c.cfg.deadline()))
		if err != nil {
			c.killLink(l, "set write deadline: "+err.Error())
			return false
		}
		if err := writeSealed(l.conn, frame); err != nil {
			c.killLink(l, "write: "+err.Error())
			return false
		}
		if typ := frame[frameHeadLen]; typ == msgFlows || typ == msgFlowsZ {
			l.recycle(frame)
		}
		l.written.Add(1)
		return true
	}
	for {
		// Control plane first: a backlog of flow batches must not delay
		// heartbeats, assigns, or report requests.
		select {
		case frame := <-l.ctrl:
			if !write(frame) {
				return
			}
			continue
		case <-l.dead:
			return
		default:
		}
		select {
		case frame := <-l.ctrl:
			if !write(frame) {
				return
			}
		case frame := <-l.out:
			if !write(frame) {
				return
			}
		case <-l.dead:
			return
		}
	}
}

func (c *Coordinator) readLoop(l *link) {
	// The first frame must be an authenticated hello, inside the hello
	// timeout — the pre-auth read deadline that stops an idle connection
	// from squatting a conn slot.
	body, err := readFrame(l.conn, time.Now().Add(c.cfg.helloTimeout()), nil)
	if err != nil || len(body) == 0 || body[0] != msgHello {
		c.authFail(l, false, "no hello before deadline")
		return
	}
	hello, err := decodeHello(body)
	if err != nil {
		c.authFail(l, false, "malformed hello: "+err.Error())
		return
	}
	if hello.identity == "" {
		c.authFail(l, false, "hello with empty identity")
		return
	}
	want := helloMAC(c.cfg.Secret, l.nonce, hello.identity, hello.name)
	if !hmac.Equal(want, hello.mac) {
		// Wrong secret, or a hello captured from another connection: the
		// MAC binds to this connection's nonce, so replays land here too.
		c.authFail(l, false, fmt.Sprintf("hello MAC mismatch for identity %q", hello.identity))
		return
	}
	l.id = hello.identity
	l.name = hello.name
	l.lastRead.Store(time.Now().UnixNano())
	if !c.join(l) {
		return
	}

	for {
		// Each body is a fresh allocation: a report's checkpoint is kept, in
		// place, as the shard's durable state.
		body, err := readFrame(l.conn, time.Now().Add(c.cfg.deadline()), nil)
		if err != nil {
			reason := "read: " + err.Error()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.mu.Lock()
				c.hbMisses++
				c.mu.Unlock()
				c.cfg.Telemetry.Recordf(obs.EventHeartbeatMiss,
					"%s silent for %v; declaring dead", l.label(), c.cfg.deadline())
				reason = "heartbeat deadline"
			}
			c.killLink(l, reason)
			return
		}
		l.lastRead.Store(time.Now().UnixNano())
		switch body[0] {
		case msgHeartbeat:
			// The read deadline reset is the whole point.
		case msgReport:
			m, err := decodeReport(body)
			if err != nil {
				c.killLink(l, "bad report: "+err.Error())
				return
			}
			c.handleReport(l, m)
		default:
			c.killLink(l, fmt.Sprintf("unexpected message type %d", body[0]))
			return
		}
	}
}

func (c *Coordinator) join(l *link) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		go c.killLink(l, "coordinator closed")
		return false
	}
	for other := range c.links {
		if other.id == l.id {
			// A second connection claiming a live identity is a zombie (or
			// an impostor who stole the secret): the established link wins,
			// and a genuinely redialing worker gets in once its old link
			// dies at the heartbeat deadline.
			c.mu.Unlock()
			c.authFail(l, true, fmt.Sprintf("identity %q already connected as %s", l.id, other.label()))
			return false
		}
	}
	c.links[l] = struct{}{}
	c.cfg.Telemetry.Recordf(obs.EventWorkerJoin, "%s joined (%d links)", l.label(), len(c.links))
	if c.epochFull != nil {
		// Re-stamp the cached frame with a fresh trace and ship time: the
		// joiner's propagation span measures its own delivery, not the age
		// of the original distribution.
		trace := c.nextTraceLocked()
		if c.sendCtrlLocked(l, stampEpochFrame(c.epochFull, trace, time.Now().UnixNano())) {
			// After a bump the cached frame still carries the full epoch's
			// sequence, and that is what the joiner compiles and classifies with.
			l.epochSeq = binary.BigEndian.Uint64(c.epochFull[1:])
		}
		c.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
			"trace %016x epoch stage=ship (replay to joiner %s)", trace, l.label())
	}
	c.rebalanceLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	return true
}

// killLink tears a link down and orphans its shards; rebalancing reassigns
// them to survivors from their last durable report plus the replay buffer.
// Idempotent, and safe to call before the link ever joined.
func (c *Coordinator) killLink(l *link, reason string) {
	c.mu.Lock()
	if !l.released {
		l.released = true
		c.conns--
	}
	_, joined := c.links[l]
	delete(c.links, l)
	if joined {
		c.cfg.Telemetry.Recordf(obs.EventWorkerDead, "%s: %s", l.label(), reason)
		now := time.Now()
		for _, s := range c.shards {
			if s.owner == l {
				s.owner = nil
				s.revoking = false
				s.revokePending = false
				s.sentCursor = s.ackBase
				c.handoffs++
				c.startSpanLocked(s, "failover", now)
				c.cfg.Telemetry.Recordf(obs.EventShardHandoff,
					"shard %d orphaned by %s at cursor %d (acked %d, %d flows to replay)",
					s.id, l.label(), s.cursor, s.ackBase, s.cursor-s.ackBase)
			}
		}
		c.rebalanceLocked()
		c.noteDegradedLocked()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	l.closeOnce.Do(func() {
		close(l.dead)
		l.conn.Close()
	})
}

func (c *Coordinator) noteDegradedLocked() {
	now := c.orphanedLocked() > 0
	if now && !c.degraded {
		c.cfg.Telemetry.Recordf(obs.EventClusterDegraded,
			"%d shards orphaned; serving degraded", c.orphanedLocked())
	}
	if !now && c.degraded {
		c.cfg.Telemetry.Record(obs.EventClusterRecovered, "all shards owned again")
	}
	c.degraded = now
}

// rebalanceLocked assigns orphaned shards to the least-loaded links and,
// when ownership counts are lopsided by more than one shard, gracefully
// revokes from the most-loaded link so the freed shard can move.
func (c *Coordinator) rebalanceLocked() {
	if len(c.links) == 0 {
		return
	}
	owned := make(map[*link]int, len(c.links))
	byID := make(map[string]*link, len(c.links))
	for l := range c.links {
		owned[l] = 0
		byID[l.id] = l
	}
	for _, s := range c.shards {
		if s.owner != nil {
			owned[s.owner]++
		}
	}
	least := func() *link {
		var best *link
		for l, n := range owned {
			if best == nil || n < owned[best] {
				best = l
			}
		}
		return best
	}
	// Reclaim pass: an orphaned shard goes back to its last owner's
	// identity when that worker is connected — a redialing (or
	// restarted-coordinator) worker resumes exactly the shards it held,
	// instead of being treated as a stranger in the load-spread pass.
	for _, s := range c.shards {
		if s.owner != nil || s.lastOwner == "" {
			continue
		}
		if l, ok := byID[s.lastOwner]; ok {
			c.reclaims++
			c.cfg.Telemetry.Recordf(obs.EventShardReclaim,
				"shard %d reclaimed by %s", s.id, l.label())
			c.assignLocked(s, l)
			owned[l]++
		}
	}
	for _, s := range c.shards {
		if s.owner == nil {
			dst := least()
			c.assignLocked(s, dst)
			owned[dst]++
		}
	}
	// Graceful moves: revoke from the most-loaded link while the spread
	// exceeds one. The shard is reassigned when its final report lands.
	for {
		var max *link
		for l, n := range owned {
			if max == nil || n > owned[max] {
				max = l
			}
		}
		min := least()
		if max == nil || owned[max]-owned[min] <= 1 {
			return
		}
		moved := false
		for _, s := range c.shards {
			if s.owner == max && !s.revoking {
				s.revoking = true
				// Push any still-buffered flows ahead of the revoke frame, so
				// the final report covers the whole stream prefix and the new
				// owner starts with an empty replay.
				c.flushToOwnerLocked(s)
				c.rebalances++
				c.startSpanLocked(s, "rebalance", time.Now())
				c.cfg.Telemetry.Recordf(obs.EventShardRevoke,
					"shard %d revoked from %s for rebalance", s.id, max.label())
				if !c.trySendLocked(max, encodeShardCtrl(msgRevoke, shardCtrlMsg{shard: s.id, trace: s.span.trace})) {
					// Queue full of flow batches the revoke must trail;
					// the ticker retries once the writer drains room.
					s.revokePending = true
				}
				owned[max]--
				moved = true
				break
			}
		}
		if !moved {
			return
		}
	}
}

func (c *Coordinator) assignLocked(s *shardState, l *link) {
	s.owner = l
	s.lastOwner = l.id
	s.revoking = false
	s.revokePending = false
	s.sentCursor = s.ackBase
	m := assignMsg{
		shard:      s.id,
		trace:      c.spanReassignedLocked(s, l, time.Now()),
		cursor:     s.ackBase,
		startNanos: c.cfg.Start.UnixNano(),
		bucket:     int64(c.cfg.Bucket),
		checkpoint: s.lastReport,
	}
	if !c.sendCtrlLocked(l, encodeAssign(m)) {
		go c.killLink(l, "control queue full at assign")
		return
	}
	c.cfg.Telemetry.Recordf(obs.EventShardAssign,
		"shard %d -> %s from cursor %d (%d flows to replay)",
		s.id, l.label(), s.ackBase, s.cursor-s.ackBase)
	c.flushShardLocked(s)
	c.noteDegradedLocked()
}

func (c *Coordinator) trySendLocked(l *link, frame []byte) bool {
	select {
	case l.out <- frame:
		return true
	case <-l.dead:
		return false
	default:
		return false
	}
}

// sendCtrlLocked enqueues a control-plane frame. The ctrl queue only backs
// up when the writer itself is stalled for a long time (control traffic is
// low-volume), so a full ctrl queue genuinely means a dead peer.
func (c *Coordinator) sendCtrlLocked(l *link, frame []byte) bool {
	select {
	case l.ctrl <- frame:
		return true
	case <-l.dead:
		return false
	default:
		return false
	}
}

// flushShardLocked frames the unsent suffix of the replay buffer to the
// shard's owner, chunked to the configured batch size.
func (c *Coordinator) flushShardLocked(s *shardState) {
	if s.owner == nil {
		return
	}
	if !s.revoking {
		c.flushToOwnerLocked(s)
		return
	}
	// A revoke that found the queue full waits here, still ordered behind
	// the flow batches that preceded it.
	if s.revokePending {
		var trace uint64
		if s.span != nil {
			trace = s.span.trace
		}
		if c.trySendLocked(s.owner, encodeShardCtrl(msgRevoke, shardCtrlMsg{shard: s.id, trace: trace})) {
			s.revokePending = false
		}
	}
}

func (c *Coordinator) flushToOwnerLocked(s *shardState) {
	l := s.owner
	if l == nil {
		return
	}
	batch := uint64(c.cfg.flowBatch())
	for s.sentCursor < s.cursor {
		n := s.cursor - s.sentCursor
		if n > batch {
			n = batch
		}
		off := s.sentCursor - s.ackBase
		m := flowsMsg{
			shard: s.id,
			base:  s.sentCursor,
			flows: s.replay[off : off+n],
		}
		var frame []byte
		select {
		case frame = <-l.free:
		default:
		}
		frame = beginFrame(frame)
		if c.cfg.Compress {
			frame = c.deflater.appendFlowsZ(frame, m)
		} else {
			frame = appendFlows(frame, m)
		}
		if !c.trySendLocked(l, sealFrame(frame)) {
			// Outbound queue full: leave the suffix buffered; the ticker
			// retries, and a persistently full queue kills the link at the
			// next heartbeat.
			l.recycle(frame)
			return
		}
		s.sentCursor += n
	}
}

// Ingest routes one flow to its shard. Flows for orphaned shards buffer in
// the replay queue (degraded service) and are delivered on reassignment;
// ingest never blocks and never drops.
func (c *Coordinator) Ingest(f ipfix.Flow) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	s := c.shards[ShardOf(f.Ingress, len(c.shards))]
	s.replay = append(s.replay, f)
	s.cursor++
	c.flowsRouted++
	if s.owner != nil && !s.revoking && s.cursor-s.sentCursor >= uint64(c.cfg.flowBatch()) {
		c.flushToOwnerLocked(s)
	}
}

// DistributeEpoch ships a RIB snapshot to every worker. The two-tier
// fingerprint gates what moves: an unchanged announcement set ships a
// sequence bump only; a changed one ships the full announcement and member
// tables, and each worker's RebuildPipeline reuses whatever compile layers
// its own previous pipeline's fingerprint still proves valid.
func (c *Coordinator) DistributeEpoch(rib *bgp.RIB) (uint64, error) {
	anns := rib.Announcements()
	if len(anns) == 0 {
		return 0, errors.New("cluster: RIB is empty")
	}
	fp := rib.Fingerprint()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("cluster: coordinator closed")
	}
	c.epochSeq++
	c.epochsSent++
	full := !c.haveFP || fp.Anns != c.lastFP.Anns
	c.lastFP, c.haveFP = fp, true
	trace := c.nextTraceLocked()
	ship := time.Now()
	var frame []byte
	if full {
		frame = encodeEpoch(epochMsg{seq: c.epochSeq, trace: trace, shipNanos: ship.UnixNano(),
			full: true, members: c.cfg.Members, anns: anns})
		c.epochFull = frame[frameHeadLen:]
	} else {
		frame = encodeEpoch(epochMsg{seq: c.epochSeq, trace: trace, shipNanos: ship.UnixNano()})
		// Late joiners still need the state itself: keep the latest full
		// epoch, only its sequence number is stale — workers treat any
		// full epoch as authoritative.
	}
	for l := range c.links {
		if !c.sendCtrlLocked(l, frame) {
			go c.killLink(l, "control queue full at epoch")
			continue
		}
		l.epochSeq = c.epochSeq
	}
	c.cfg.Telemetry.Recordf(obs.EventSpanEpoch,
		"trace %016x epoch %d stage=ship full=%v to %d workers", trace, c.epochSeq, full, len(c.links))
	c.cfg.Telemetry.Recordf(obs.EventClusterEpoch,
		"epoch %d distributed (full=%v, %d announcements)", c.epochSeq, full, len(anns))
	// The epoch is part of the durable state: a resumed coordinator must
	// re-admit workers with the same routing tables, not a stale set.
	c.saveLedgerLocked()
	return c.epochSeq, nil
}

func (c *Coordinator) handleReport(l *link, m reportMsg) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(m.shard) >= len(c.shards) {
		c.staleReports++
		return
	}
	s := c.shards[m.shard]
	if s.owner != l {
		// A zombie: the reporter lost the shard (we declared it dead or
		// revoked it) after sending. Accepting it would double-count the
		// replay the new owner is also processing.
		c.staleReports++
		c.cfg.Telemetry.Recordf(obs.EventStaleReportRejected,
			"shard %d report from %s ignored: not the owner", m.shard, l.label())
		return
	}
	if m.cursor < s.ackBase || m.cursor > s.sentCursor {
		go c.killLink(l, fmt.Sprintf("shard %d report cursor %d outside [%d,%d]",
			m.shard, m.cursor, s.ackBase, s.sentCursor))
		return
	}
	// The checkpoint says itself how many flows it incorporates. A report
	// that claims another position would be merged short (or long) of the
	// flows it acknowledges, and — since a shard that looks caught up is not
	// asked again — stay that way.
	if head, err := core.CheckpointHeader(m.checkpoint); err != nil || head.Processed != m.cursor {
		c.reportMismatches++
		go c.killLink(l, fmt.Sprintf("shard %d report claims cursor %d, its checkpoint says %d (%v)",
			m.shard, m.cursor, head.Processed, err))
		return
	}
	// A solicited report echoes the request's send timestamp — the
	// round-trip is measured on the coordinator clock alone.
	if m.reqNanos > 0 && c.rttHist != nil {
		if rtt := now.Sub(time.Unix(0, m.reqNanos)); rtt > 0 {
			c.rttHist.Observe(rtt.Seconds())
		}
	}
	c.spanResumedLocked(s, l, now)
	// Compact in place: reslicing from the front would shed the capacity in
	// front of the tail, and Ingest's appends would regrow the buffer for as
	// long as the feed runs.
	s.replay = s.replay[:copy(s.replay, s.replay[m.cursor-s.ackBase:])]
	s.ackBase = m.cursor
	s.lastReport = m.checkpoint
	if m.final && s.revoking {
		s.owner = nil
		// A graceful move must stick: the revoked owner stays connected,
		// so leaving its identity here would reclaim the shard right back.
		s.lastOwner = ""
		s.revoking = false
		s.sentCursor = s.ackBase
		c.rebalanceLocked()
	}
	// A merged report is the durability point handoff resumes from — the
	// moment worth persisting.
	c.saveLedgerLocked()
	c.cond.Broadcast()
}

// requestReportsLocked asks the owner of every owned, in-sync shard that is
// behind — or whose handoff is still waiting for the new owner's first report
// — for a fresh quiescent report. A shard whose durable report already covers
// its cursor has nothing to add, and asking anyway costs its owner a full
// encode of the shard's state per request. Each request carries a trace ID
// and the send timestamp; the report echoes both, closing the round-trip
// histogram.
func (c *Coordinator) requestReportsLocked() {
	now := time.Now().UnixNano()
	for _, s := range c.shards {
		if s.owner == nil || s.revoking || !(s.behind() || s.span != nil) {
			continue
		}
		c.flushToOwnerLocked(s)
		// Report requests recur (every few beats and from Checkpoint), so a
		// full control queue just skips this round.
		c.sendCtrlLocked(s.owner, encodeShardCtrl(msgReportReq,
			shardCtrlMsg{shard: s.id, trace: c.nextTraceLocked(), nanos: now}))
	}
}

// Checkpoint waits until every shard's durable report has caught up with
// its cursor, then folds the shard reports — decoded as an order-independent
// merge — into one checkpoint whose canonical encoding is byte-identical
// to a fault-free single-process run over the same flows. The caller must
// have stopped feeding Ingest. Shards that are orphaned with unreported
// flows make this wait; cancel the context to give up.
func (c *Coordinator) Checkpoint(ctx context.Context) (*core.Checkpoint, error) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.requestReportsLocked()
	lastNudge := time.Now()
	for {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cluster: checkpoint: %w (%d shards behind)", ctx.Err(), c.behindLocked())
		}
		if c.behindLocked() == 0 {
			break
		}
		// Re-request periodically: a handoff between our first request and
		// quiescence moves a shard to an owner that never saw the request.
		if time.Since(lastNudge) >= c.cfg.interval() {
			c.requestReportsLocked()
			lastNudge = time.Now()
		}
		c.cond.Wait()
	}

	merged := core.NewAggregator(c.cfg.Start, c.cfg.Bucket)
	var total, stale uint64
	degraded := false
	for _, s := range c.shards {
		total += s.cursor
		if s.lastReport == nil {
			continue
		}
		// Each report folds straight into merged as it decodes: no shard
		// aggregate is built only to be merged and dropped.
		cp, err := core.MergeCheckpointBytes(merged, s.lastReport)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d report: %w", s.id, err)
		}
		stale += cp.StaleVerdicts
		degraded = degraded || cp.Degraded
	}
	c.checkpoints++
	epoch, swaps := c.epochSeq, c.epochSeq
	if base := c.cfg.Resume; base != nil {
		// Fold the baseline a resumed run continues from. Epoch and Swaps
		// take the max — matching single-process resume, which restores the
		// saved counters and does not count re-promotion as a new swap.
		merged.Merge(base.Agg)
		total += base.Processed
		stale += base.StaleVerdicts
		degraded = degraded || base.Degraded
		if uint64(base.Epoch) > epoch {
			epoch = uint64(base.Epoch)
		}
		if base.Swaps > swaps {
			swaps = base.Swaps
		}
	}
	return &core.Checkpoint{
		Ingested:      total,
		Queued:        total,
		Processed:     total,
		Epoch:         core.Epoch(epoch),
		Swaps:         swaps,
		StaleVerdicts: stale,
		Degraded:      degraded,
		Agg:           merged,
	}, nil
}

func (c *Coordinator) behindLocked() int {
	n := 0
	for _, s := range c.shards {
		if s.behind() {
			n++
		}
	}
	return n
}

// behind reports whether the shard's durable report is short of the flows
// routed to it.
func (s *shardState) behind() bool {
	return s.ackBase < s.cursor || (s.cursor > 0 && s.lastReport == nil)
}

// Stats is a point-in-time cluster summary for tests and operators.
type Stats struct {
	Workers      int
	Conns        int
	Orphaned     int
	ReplayFlows  int
	FlowsRouted  uint64
	Handoffs     uint64
	Rebalances   uint64
	Reclaims     uint64
	StaleReports uint64
	// ReportMismatches counts reports whose claimed cursor disagreed with
	// the Processed count in their own checkpoint; each one kills its link.
	ReportMismatches uint64
	EpochSeq         uint64
	AuthFailures     uint64
	IdentityRejects  uint64
	ConnsRejected    uint64
	AcceptErrors     uint64
	LedgerWrites     uint64
	LedgerErrors     uint64
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Workers:          len(c.links),
		Conns:            c.conns,
		Orphaned:         c.orphanedLocked(),
		ReplayFlows:      c.replayLenLocked(),
		FlowsRouted:      c.flowsRouted,
		Handoffs:         c.handoffs,
		Rebalances:       c.rebalances,
		Reclaims:         c.reclaims,
		StaleReports:     c.staleReports,
		ReportMismatches: c.reportMismatches,
		EpochSeq:         c.epochSeq,
		AuthFailures:     c.authFailures,
		IdentityRejects:  c.identityRejects,
		ConnsRejected:    c.connsRejected,
		AcceptErrors:     c.acceptErrors,
		LedgerWrites:     c.ledgerWrites,
		LedgerErrors:     c.ledgerErrors,
	}
}

// Close tears down every link and stops the ticker. It does not force a
// final ledger write — Close is crash-equivalent by design, so tests that
// kill a coordinator and tests that close one exercise the same resume
// path; call SyncLedger first for a graceful shutdown.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ls := make([]*link, 0, len(c.links))
	for l := range c.links {
		ls = append(ls, l)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, l := range ls {
		c.killLink(l, "coordinator closed")
	}
	if c.ledgerStop != nil {
		close(c.ledgerStop)
		<-c.ledgerDone
	}
}
