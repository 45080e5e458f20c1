package cluster

import (
	"context"
	"crypto/rand"
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
	// HeartbeatInterval paces the coordinator's tick — heartbeats, flushes,
	// liveness — (default 500ms); a link silent for HeartbeatMisses
	// intervals (default 3), before its hello or after, is dead.
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
	// LedgerPath, when set, persists the shard ledger — per-shard cursors,
	// last durable worker checkpoints, replay tails, plus the current
	// epoch — via write-temp+sync+rename, on every report merge and on a
	// timer. A coordinator constructed with an existing ledger resumes from
	// it: shards restart orphaned at their durable state and redialing
	// workers reclaim them by identity.
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

// heartbeat applies the liveness defaults both ends of a link share: a
// 500ms interval and a budget of 3 misses.
func heartbeat(interval time.Duration, misses int) (time.Duration, int) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if misses <= 0 {
		misses = 3
	}
	return interval, misses
}

func (c *Config) interval() time.Duration {
	interval, _ := heartbeat(c.HeartbeatInterval, 0)
	return interval
}

// liveness is one end's view of a link under the rule both ends judge at
// every tick: silent when nothing has been read from it for the deadline
// (before the hello or the challenge too), stalled when frames have waited in
// its outbound queue that long without the writer finishing one. A draining
// queue is backpressure, not death. It reads no clock.
type liveness struct {
	heard   time.Time // last frame read (the link's start before the first)
	written uint64    // the writer's finished frames at the last judgement
	moved   time.Time // when written last advanced or the queue was last seen empty
}

func (l *liveness) judge(now time.Time, deadline time.Duration, out outbox) (silent, stalled bool) {
	if now.Sub(l.heard) >= deadline {
		return true, false
	}
	if written, backlog := out.progress(); backlog == 0 || written != l.written {
		l.written, l.moved = written, now
	}
	return false, now.Sub(l.moved) >= deadline
}

// clock is the cluster's one time source: now stamps every input, and every
// paces the book's tick and each worker session's until stop closes.
// Production runs on the wall clock; the cluster tests drive a virtual one, so
// a fault lands at a chosen point of the feed, not where a pacing sleep put it.
type clock interface {
	now() time.Time
	every(d time.Duration, stop <-chan struct{}, fn func(now time.Time))
}

type wallClock struct{}

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) every(d time.Duration, stop <-chan struct{}, fn func(time.Time)) {
	go func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				fn(now)
			case <-stop:
				return
			}
		}
	}()
}

// outboundDepth bounds a link's outbound frame queues. A worker that stops
// reading for long enough to back one up is indistinguishable from a dead
// one, and the liveness rule treats it as such rather than stall the
// cluster.
const outboundDepth = 4096

// freeFrames bounds a link's free list of flow-frame buffers (link.free).
const freeFrames = 64

// link is one connection's socket side: the outbox the book (or a worker
// session) queues on, and the writer that drains it.
type link struct {
	conn net.Conn
	peer *peer // the connection in the book (set before the loops start)
	// The two planes of wire-ready frames (see outbox); the writer drains
	// ctrlQ first, so control frames may overtake flow frames but never
	// fall behind one queued after them — a shard's flows depend on the
	// epoch and the assign queued before them. Every control message is
	// either flow-order-independent (heartbeat) or ordered only against
	// other control frames (epoch before assign), which FIFO within ctrlQ
	// preserves. A frame that must not overtake its shard's flows (a report
	// request, a revoke) goes on dataQ behind them.
	ctrlQ, dataQ chan []byte
	// free is where the writer hands flow-frame buffers back once they are
	// on the wire. Frames of one link are one size (the flow batch), so a
	// returned buffer fits the next frame exactly. A writer further behind
	// than the list drops the excess to the GC rather than pin a full
	// queue's worth. A worker's link holds its one report buffer here.
	free      chan []byte
	written   atomic.Uint64 // frames the writer finished
	closeOnce sync.Once
	dead      chan struct{}
}

func newLink(conn net.Conn) *link {
	return &link{
		conn:  conn,
		ctrlQ: make(chan []byte, outboundDepth),
		dataQ: make(chan []byte, outboundDepth),
		free:  make(chan []byte, freeFrames),
		dead:  make(chan struct{}),
	}
}

func (l *link) ctrl(frame []byte) bool { return l.offer(l.ctrlQ, frame) }
func (l *link) data(frame []byte) bool { return l.offer(l.dataQ, frame) }

func (l *link) offer(q chan []byte, frame []byte) bool {
	select {
	case q <- frame:
		return true
	case <-l.dead:
		return false
	default:
		return false
	}
}

func (l *link) buffer() []byte {
	select {
	case frame := <-l.free:
		return frame
	default:
		return nil
	}
}

func (l *link) recycle(frame []byte) {
	select {
	case l.free <- frame:
	default:
	}
}

func (l *link) progress() (uint64, int) { return l.written.Load(), len(l.ctrlQ) + len(l.dataQ) }

// close ends both loops: it releases the writer and fails the pending read.
func (l *link) close() {
	l.closeOnce.Do(func() {
		close(l.dead)
		l.conn.Close()
	})
}

// Coordinator owns the flow source, routes flows to shard owners, and folds
// worker reports back into one canonical checkpoint. It is the shell around
// the shard book: sockets, the reader and writer goroutines, the ledger
// writer, telemetry and Checkpoint's wait; every decision is the book's.
type Coordinator struct {
	cfg   Config
	clock clock

	mu     sync.Mutex
	cond   *sync.Cond
	book   *book
	closed bool
	stop   chan struct{} // closed by Close: ends the tick and the ledger writer

	// Snapshots encoded under mu are handed to a dedicated writer goroutine
	// (latest wins — an overwritten pending snapshot is strictly older than
	// its replacement), so file IO never runs under the coordinator lock.
	// SyncLedger bypasses the queue.
	ledgerCh   chan []byte
	ledgerDone chan struct{}
	ledgerWMu  sync.Mutex // serializes actual file writes
}

// NewCoordinator validates the configuration and registers telemetry. With
// LedgerPath set and an existing ledger file present, the coordinator
// resumes from it: every shard restarts orphaned at its last durable state
// and Stats().FlowsRouted reports the restored feed position the upstream
// replayer must resume from.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	var lg *book
	if cfg.LedgerPath != "" {
		var err error
		lg, err = loadLedgerFile(cfg.LedgerPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("cluster: loading ledger %s: %w", cfg.LedgerPath, err)
		}
	}
	return newCoordinator(cfg, lg, wallClock{})
}

// newCoordinator builds a coordinator on clk, resuming from lg — a decoded
// ledger — when non-nil (the standby passes its warm-tailed copy here).
func newCoordinator(cfg Config, lg *book, clk clock) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		return nil, errors.New("cluster: Shards must be > 0")
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Hour
	}
	b, err := newBook(&cfg, lg)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, clock: clk, book: b, stop: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	if lg != nil {
		cfg.Telemetry.Recordf(obs.EventLedgerResume,
			"resumed shard ledger: epoch %d, %d flows routed, %d in replay",
			b.epochSeq, b.flowsRouted, b.replayLen())
	}
	if cfg.LedgerPath != "" {
		c.ledgerCh = make(chan []byte, 1)
		c.ledgerDone = make(chan struct{})
		go c.ledgerWriter()
	}
	if tel := cfg.Telemetry; tel != nil {
		c.instrument(tel)
	}
	clk.every(cfg.interval(), c.stop, c.tick)
	return c, nil
}

// unlock ends a book step: it queues the ledger snapshot the step asked for,
// wakes a waiting Checkpoint, releases mu, and only then closes the links the
// book dropped.
func (c *Coordinator) unlock() {
	kills, save, wake := c.book.outputs()
	if save && c.ledgerCh != nil && !c.closed {
		// Every sender holds mu, so once a stale pending snapshot is dropped
		// the send cannot block.
		select {
		case <-c.ledgerCh:
		default:
		}
		c.ledgerCh <- encodeLedger(c.book)
	}
	if wake {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	for _, p := range kills {
		p.out.(*link).close()
	}
}

func (c *Coordinator) tick(now time.Time) {
	c.mu.Lock()
	if !c.closed {
		c.book.tick(now)
	}
	c.unlock()
}

func (c *Coordinator) ledgerWriter() {
	defer close(c.ledgerDone)
	for {
		select {
		case snap := <-c.ledgerCh:
			c.writeLedger(snap)
		case <-c.stop:
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
		c.book.n.LedgerErrors++
	} else {
		c.book.n.LedgerWrites++
		c.book.ledgerBytes = uint64(len(snap))
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
	snap := encodeLedger(c.book)
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
	return c.book.epochSeq
}

func (c *Coordinator) instrument(tel *obs.Telemetry) {
	m := tel.Metrics
	b := c.book // fixed for the coordinator's life; its fields are read under mu
	for _, ct := range []struct {
		name, help string
		v          *uint64
	}{
		{"spoofscope_cluster_flows_routed_total", "Flows routed to a shard by the coordinator.", &b.flowsRouted},
		{"spoofscope_cluster_handoffs_total", "Shard handoffs forced by a dead worker link.", &b.n.Handoffs},
		{"spoofscope_cluster_rebalances_total", "Graceful shard moves triggered by membership changes.", &b.n.Rebalances},
		{"spoofscope_cluster_heartbeat_misses_total", "Links declared dead after the heartbeat deadline passed silent.", &b.hbMisses},
		{"spoofscope_cluster_stale_reports_total", "Shard reports rejected because the sender no longer owns the shard.", &b.n.StaleReports},
		{"spoofscope_cluster_report_mismatches_total", "Shard reports rejected because their cursor disagrees with their checkpoint.", &b.n.ReportMismatches},
		{"spoofscope_cluster_epochs_total", "Routing-state epochs distributed to workers.", &b.epochsSent},
		{"spoofscope_cluster_auth_failures_total", "Connections dropped for a bad, truncated, or replayed hello.", &b.n.AuthFailures},
		{"spoofscope_cluster_identity_rejects_total", "Hellos rejected because their identity is already connected.", &b.n.IdentityRejects},
		{"spoofscope_cluster_conns_rejected_total", "Connections closed at the connection cap.", &b.n.ConnsRejected},
		{"spoofscope_cluster_accept_errors_total", "Accept failures survived by the serve loop.", &b.n.AcceptErrors},
		{"spoofscope_cluster_reclaims_total", "Orphaned shards reclaimed by their last owner's identity.", &b.n.Reclaims},
		{"spoofscope_cluster_ledger_writes_total", "Shard-ledger snapshots durably written.", &b.n.LedgerWrites},
		{"spoofscope_cluster_ledger_errors_total", "Shard-ledger write failures.", &b.n.LedgerErrors},
	} {
		v := ct.v
		m.CounterFunc(ct.name, ct.help, func() uint64 { c.mu.Lock(); defer c.mu.Unlock(); return *v })
	}
	for _, g := range []struct {
		name, help string
		fn         func() int
	}{
		{"spoofscope_cluster_ledger_bytes", "Size of the last shard-ledger snapshot written.", func() int { return int(b.ledgerBytes) }},
		{"spoofscope_cluster_workers", "Live worker links.", b.workers},
		{"spoofscope_cluster_shards_orphaned", "Shards with no owner; their flows buffer in the replay queue.", b.orphaned},
		{"spoofscope_cluster_replay_flows", "Flows buffered awaiting a durable worker report.", b.replayLen},
	} {
		fn := g.fn
		m.GaugeFunc(g.name, g.help, func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(fn()) })
	}
	b.handoffReassign = m.Histogram(MetricHandoff,
		"Shard handoff stage latency: revoke/death to the named stage.",
		obs.WireBuckets, obs.Label{Name: "stage", Value: "reassign"})
	b.handoffResumed = m.Histogram(MetricHandoff,
		"Shard handoff stage latency: revoke/death to the named stage.",
		obs.WireBuckets, obs.Label{Name: "stage", Value: "resumed"})
	b.rttHist = m.Histogram(MetricReportRTT,
		"Report-request round-trip on the coordinator's clock, including the wait behind the shard's queued flows.",
		obs.WireBuckets)
	tel.PublishJSON("/cluster", func() any { return c.FleetStatus() })
	tel.SetHealth(func() obs.Health {
		c.mu.Lock()
		defer c.mu.Unlock()
		switch orphaned := b.orphaned(); {
		case b.epochSeq == 0:
			return obs.Health{Status: "unready", Detail: "no routing epoch distributed yet"}
		case orphaned > 0:
			return obs.Health{Ready: true, Status: "degraded",
				Detail: fmt.Sprintf("%d shards orphaned; flows buffering", orphaned)}
		case b.workers() == 0:
			return obs.Health{Ready: true, Status: "degraded", Detail: "no live workers"}
		default:
			return obs.Health{Ready: true, Status: "ok"}
		}
	})
}

// Serve accepts worker connections until the listener closes or the
// coordinator shuts down. Transient accept failures (including injected
// ones — the loop is faultnet-Listener compatible) are counted, journaled,
// and retried with capped backoff; only a closed listener or coordinator
// ends the loop, a backoff wait included.
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
			c.book.n.AcceptErrors++
			c.mu.Unlock()
			if closed {
				return nil
			}
			fails++
			c.cfg.Telemetry.Recordf(obs.EventAcceptError,
				"accept failed (attempt %d): %v", fails, err)
			select {
			case <-time.After(bo.Next(fails)):
			case <-c.stop:
				return nil
			}
			continue
		}
		fails = 0
		c.AddConn(conn)
	}
}

// AddConn hands one worker connection to the coordinator, which owns it
// from here on. The connection is challenged immediately; it joins the
// cluster once an authenticated hello arrives, and is dropped if none does
// within the liveness deadline. Connections beyond the cap are closed on
// the spot.
func (c *Coordinator) AddConn(conn net.Conn) {
	nonce := make([]byte, challengeNonceLen)
	if _, err := rand.Read(nonce); err != nil {
		// No entropy, no auth: refuse rather than accept an unprovable peer.
		conn.Close()
		return
	}
	l := newLink(conn)
	c.mu.Lock()
	if !c.closed {
		l.peer = c.book.accept(l, nonce, c.clock.now())
	}
	c.mu.Unlock()
	if l.peer == nil {
		conn.Close()
		return
	}
	go l.writeLoop(func(err error) { c.lost(l, "write: "+err.Error()) })
	go c.readLoop(l)
}

// lost hands the book a failed connection.
func (c *Coordinator) lost(l *link, reason string) {
	c.mu.Lock()
	c.book.lost(l.peer, reason, c.clock.now())
	c.unlock()
}

// writeLoop drains the link's planes, control first, until the link is
// closed or a write fails, which it hands to failed. It sets no write
// deadline: a writer stuck on a peer that stopped reading backs its queues
// up, the liveness rule drops the link, and the close fails the write.
func (l *link) writeLoop(failed func(error)) {
	// write sends one frame; a flow frame's or a report's buffer goes back on
	// the free list.
	write := func(frame []byte) bool {
		if err := writeSealed(l.conn, frame); err != nil {
			failed(err)
			return false
		}
		if typ := frame[frameHeadLen]; typ == msgFlows || typ == msgFlowsZ || typ == msgReport {
			l.recycle(frame)
		}
		l.written.Add(1)
		return true
	}
	// writeCtrl writes every control frame queued so far.
	writeCtrl := func() bool {
		for {
			select {
			case frame := <-l.ctrlQ:
				if !write(frame) {
					return false
				}
			default:
				return true
			}
		}
	}
	for {
		select {
		case frame := <-l.ctrlQ:
			if !write(frame) {
				return
			}
		case frame := <-l.dataQ:
			// select picks at random among ready planes: the control
			// frames queued by now, the ones this frame may depend on among
			// them, still go first.
			if !writeCtrl() || !write(frame) {
				return
			}
		case <-l.dead:
			return
		}
	}
}

// readLoop hands every frame read to the book, until the link fails or the
// book drops it. It sets no read deadline either: silence is judged at the
// book's tick.
func (c *Coordinator) readLoop(l *link) {
	for {
		// Each body is a fresh allocation: a report's checkpoint is kept, in
		// place, as the shard's durable state.
		body, err := readFrame(l.conn, nil)
		c.mu.Lock()
		if err != nil {
			c.book.lost(l.peer, "read: "+err.Error(), c.clock.now())
		} else {
			c.book.frame(l.peer, body, c.clock.now())
		}
		gone := l.peer.gone
		c.unlock()
		if gone {
			return
		}
	}
}

// Ingest routes flows to their shards, taking the coordinator's lock once
// per call: a source hands over each decoded message whole. Flows for
// orphaned shards buffer in the replay queue (degraded service) and are
// delivered on reassignment; ingest never blocks and never drops.
func (c *Coordinator) Ingest(flows ...ipfix.Flow) {
	c.mu.Lock()
	if !c.closed {
		c.book.ingest(flows)
	}
	c.mu.Unlock()
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
	if c.closed {
		c.mu.Unlock()
		return 0, errors.New("cluster: coordinator closed")
	}
	seq := c.book.epoch(anns, fp, c.clock.now())
	c.unlock()
	return seq, nil
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
	b := c.book
	lastNudge := c.clock.now()
	b.requestReports(lastNudge)
	for {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cluster: checkpoint: %w (%d shards behind)", ctx.Err(), b.behindShards())
		}
		if b.behindShards() == 0 {
			break
		}
		// Re-request periodically. A request trails its shard's flows, so
		// the first round covers every cursor; this only recovers a request
		// lost to a handoff (the shard's new owner never saw it) or to a
		// data plane too full to take it.
		if now := c.clock.now(); now.Sub(lastNudge) >= c.cfg.interval() {
			b.requestReports(now)
			lastNudge = now
		}
		c.cond.Wait()
	}

	merged := core.NewAggregator(c.cfg.Start, c.cfg.Bucket)
	var total uint64
	for i := range b.shards {
		s := &b.shards[i]
		total += s.cursor
		if s.lastReport == nil {
			continue
		}
		// Each report folds straight into merged as it decodes: no shard
		// aggregate is built only to be merged and dropped.
		if _, err := core.MergeCheckpointBytes(merged, s.lastReport); err != nil {
			return nil, fmt.Errorf("cluster: shard %d report: %w", s.id, err)
		}
	}
	cp := &core.Checkpoint{Epoch: core.Epoch(b.epochSeq), Swaps: b.epochSeq, Agg: merged}
	if base := c.cfg.Resume; base != nil {
		// Fold the baseline a resumed run continues from. Epoch and Swaps
		// take the max — matching single-process resume, which restores the
		// saved counters and does not count re-promotion as a new swap. A
		// worker's report carries no stale verdicts and is never degraded,
		// so only the baseline sets either.
		merged.Merge(base.Agg)
		total += base.Processed
		cp.StaleVerdicts, cp.Degraded = base.StaleVerdicts, base.Degraded
		cp.Epoch, cp.Swaps = max(cp.Epoch, base.Epoch), max(cp.Swaps, base.Swaps)
	}
	cp.Ingested, cp.Queued, cp.Processed = total, total, total
	return cp, nil
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
	return c.book.stats()
}

// FleetStatus snapshots the coordinator's cluster view.
func (c *Coordinator) FleetStatus() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.book.status("coordinator", c.cfg.LedgerPath)
}

// Close tears down every link and stops the tick. It does not force a
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
	close(c.stop)
	c.book.closeAll(c.clock.now())
	c.unlock()
	if c.ledgerDone != nil {
		<-c.ledgerDone
	}
}
