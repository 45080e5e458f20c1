package cluster

import (
	"crypto/hmac"
	"fmt"
	"slices"
	"time"

	"spoofscope/internal/bgp"
	"spoofscope/internal/core"
	"spoofscope/internal/ipfix"
	"spoofscope/internal/obs"
)

// The shard book is every decision the coordinator makes, as one state
// machine with no sockets, no locks and no clock of its own (DESIGN.md §5e).
// Its inputs are a connection accepted, a frame read, a connection lost, a
// flow ingested, an epoch distributed and a tick, each with the time the
// shell read from its clock. Its outputs are the frames it queues on a link's
// two planes (outbox), the links it drops (kills), and the flags that ask the
// shell for a ledger snapshot (save) and to wake a waiting Checkpoint (wake).
// The shell — Coordinator — owns the sockets, the goroutines and the lock,
// and applies the outputs after each step, closing dropped links only once
// the lock is released.
//
// The book is also the ledger: the durable half of its state (per-shard
// cursors, reports and replay, the epoch, the feed position) is exactly what
// encodeLedger writes, and decodeLedger returns a book. Stats, FleetStatus
// and a standby's /cluster all render it.

// maxConns caps concurrent worker connections, counting ones that have not
// said hello yet. Excess connections are closed and counted, so an accept
// flood cannot exhaust the coordinator.
const maxConns = 256

// outbox is a link's outbound side as the book sees it. Both planes carry
// wire-ready frames and refuse rather than block when full. The data plane
// carries flow batches, plus the report requests and revokes that must trail
// their shard's flows; the control plane carries everything else and is
// written first, so a queue of in-flight flow batches never delays a
// heartbeat or an assign.
type outbox interface {
	ctrl(frame []byte) bool
	data(frame []byte) bool
	// buffer lends a flow-frame buffer the writer handed back (nil when
	// there is none); recycle returns one the data plane refused.
	buffer() []byte
	recycle(frame []byte)
	// progress reports the frames written to the connection so far and the
	// frames still queued on both planes.
	progress() (written uint64, backlog int)
}

// peer is one connection in the book: unauthenticated until its hello, then
// a worker that can own shards.
type peer struct {
	out   outbox
	nonce []byte // this connection's challenge nonce
	id    string // authenticated stable identity; the reclaim key
	name  string

	joined bool
	gone   bool // dropped: queued for closing, owns nothing, gets no frame
	liveness
	// epochSeq is the sequence of the last epoch frame queued to the peer.
	epochSeq uint64
}

func (p *peer) label() string {
	if p.name != "" {
		return p.name
	}
	return "worker"
}

// shard is the book's state for one shard. The cursor invariant that makes
// handoff exactly-once:
//
//	ackBase <= sentCursor <= cursor
//	replay == the wire records of the flows [ackBase, cursor)
//
// lastReport is the checkpoint that incorporates exactly the first ackBase
// flows of the shard stream. Reassignment sends lastReport plus the replay
// buffer, so the new owner reconstructs precisely the flows the old owner
// never durably reported — nothing lost, nothing double-counted.
type shard struct {
	id        uint32
	owner     *peer
	lastOwner string // identity of the most recent owner; reclaim key
	revoking  bool
	// revokePending marks a revoke frame the owner's full data plane
	// refused. The revoke must stay ordered behind the flow batches queued
	// before it (workers fatally reject flows for a shard they no longer
	// own), so the tick retries it instead of dropping a healthy, draining
	// link.
	revokePending bool
	cursor        uint64
	sentCursor    uint64
	ackBase       uint64
	lastReport    []byte
	reportEpoch   uint64 // the epoch lastReport states
	// replay holds the flows [ackBase, cursor) as flowWireLen-byte wire
	// records: what a flow frame carries and the ledger embeds, verbatim.
	replay []byte
	// span tracks an in-flight ownership transfer (revoke/death → reassign
	// → first report from the new owner); nil when ownership is settled.
	span *handoffSpan
}

// behind reports whether the shard's durable report is short of the flows
// routed to it, or states an epoch other than the book's: the merged
// checkpoint states the book's.
func (b *book) behind(s *shard) bool {
	return s.ackBase < s.cursor || (s.cursor > 0 && s.lastReport == nil) ||
		s.lastReport != nil && s.reportEpoch != b.epochSeq
}

type book struct {
	// Configuration, set by newBook.
	members   []core.MemberInfo
	flowBatch uint64
	compress  bool
	secret    []byte
	deadline  time.Duration // heartbeat interval × misses: the liveness budget
	tel       *obs.Telemetry
	// The coordinator-side span histograms (nil without Telemetry).
	handoffReassign, handoffResumed, rttHist *obs.Histogram

	// Durable state: what the ledger persists.
	startNanos, bucket int64 // every shard aggregator's time base
	epochSeq           uint64
	haveFP             bool
	lastFP             bgp.Fingerprint
	// epochFull is the latest full epoch's frame body, re-stamped and
	// replayed to late joiners.
	epochFull   []byte
	flowsRouted uint64
	shards      []shard

	// Live state.
	peers               []*peer // accept order
	ticks               uint64
	traceBase, traceSeq uint64
	degraded            bool
	rebalanceDue        bool
	deflater            flowDeflater // compressed flow frames' encode scratch

	// n holds the event counts Stats reports (stats fills in its other
	// fields); the metrics alone show the last three.
	n                                 Stats
	hbMisses, epochsSent, ledgerBytes uint64

	// Outputs of the step in progress (see outputs).
	kills      []*peer
	save, wake bool
}

// newBook configures a book for cfg: a fresh one, or lg — a decoded ledger —
// once its shard count and time base are checked against cfg.
func newBook(cfg *Config, lg *book) (*book, error) {
	b := lg
	if b == nil {
		b = &book{startNanos: cfg.Start.UnixNano(), bucket: int64(cfg.Bucket), shards: make([]shard, cfg.Shards)}
		for i := range b.shards {
			b.shards[i].id = uint32(i)
		}
	} else if err := b.validate(cfg); err != nil {
		return nil, err
	}
	b.members = cfg.Members
	b.flowBatch = 64
	if cfg.FlowBatch > 0 {
		b.flowBatch = uint64(cfg.FlowBatch)
	}
	b.compress = cfg.Compress
	b.secret = cfg.Secret
	interval, misses := heartbeat(cfg.HeartbeatInterval, cfg.HeartbeatMisses)
	b.deadline = interval * time.Duration(misses)
	b.tel = cfg.Telemetry
	b.traceBase = newTraceBase()
	return b, nil
}

// outputs hands the shell what the last step asked of it, and clears it:
// the peers to disconnect, whether a ledger snapshot is due, and whether a
// waiting Checkpoint should look again.
func (b *book) outputs() (kills []*peer, save, wake bool) {
	kills, save, wake = b.kills, b.save, b.wake
	b.kills, b.save, b.wake = nil, false, false
	return kills, save, wake
}

// --- inputs ------------------------------------------------------------------

// accept registers a new connection and queues its challenge. At the
// connection cap it counts the rejection and returns nil.
func (b *book) accept(out outbox, nonce []byte, now time.Time) *peer {
	if len(b.peers) >= maxConns {
		b.n.ConnsRejected++
		b.tel.Recordf(obs.EventConnRejected, "connection closed at the %d-conn cap", maxConns)
		return nil
	}
	p := &peer{out: out, nonce: nonce, liveness: liveness{heard: now, moved: now}}
	b.peers = append(b.peers, p)
	out.ctrl(encodeChallenge(nonce)) // a fresh queue has room
	return p
}

// frame is one frame read from p. The first must be an authenticated hello;
// after it, a joined worker sends heartbeats and reports.
func (b *book) frame(p *peer, body []byte, now time.Time) {
	if p.gone {
		return
	}
	p.heard = now
	switch {
	case !p.joined:
		b.hello(p, body, now)
	case body[0] == msgHeartbeat:
		// Being heard is the whole point.
	case body[0] == msgReport:
		if m, err := decodeReport(body); err != nil {
			b.lose(p, "bad report: "+err.Error(), now)
		} else {
			b.report(p, m, now)
		}
	default:
		b.lose(p, fmt.Sprintf("unexpected message type %d", body[0]), now)
	}
	b.settle(now)
}

// lost is the shell's report that p's connection failed.
func (b *book) lost(p *peer, reason string, now time.Time) {
	if !p.gone && !p.joined {
		b.refuse(p, false, reason+" before its hello", now)
	} else {
		b.lose(p, reason, now)
	}
	b.settle(now)
}

// ingest routes each flow to its shard, in order, encoding it once into the
// shard's replay buffer as the wire record every later frame and ledger
// copies. Flows for orphaned shards buffer in the replay queue (degraded
// service) and are delivered on reassignment; ingest never blocks, never
// drops and never allocates beyond the replay buffer's growth.
func (b *book) ingest(flows []ipfix.Flow) {
	for i := range flows {
		s := &b.shards[ShardOf(flows[i].Ingress, len(b.shards))]
		s.replay = appendFlow(s.replay, &flows[i])
		s.cursor++
		if s.owner != nil && !s.revoking && s.cursor-s.sentCursor >= b.flowBatch {
			b.flushToOwner(s)
		}
	}
	b.flowsRouted += uint64(len(flows))
}

// epoch distributes a routing snapshot: the full announcement and member
// tables when the announcement digest changed, a sequence bump otherwise.
func (b *book) epoch(anns []bgp.Announcement, fp bgp.Fingerprint, now time.Time) uint64 {
	b.epochSeq++
	b.epochsSent++
	full := !b.haveFP || fp.Anns != b.lastFP.Anns
	b.lastFP, b.haveFP = fp, true
	m := epochMsg{seq: b.epochSeq, trace: b.nextTrace(), shipNanos: now.UnixNano()}
	if full {
		m.full, m.members, m.anns = true, b.members, anns
	}
	frame := encodeEpoch(m)
	if full {
		b.epochFull = frame[frameHeadLen:]
	}
	// A bump leaves the latest full epoch cached for late joiners: only its
	// sequence number is stale, and hello re-stamps it.
	workers := 0
	for _, p := range b.peers {
		if !p.joined || p.gone {
			continue
		}
		workers++
		if !p.out.ctrl(frame) {
			b.lose(p, "control queue full at epoch", now)
			continue
		}
		p.epochSeq = b.epochSeq
	}
	b.tel.Recordf(obs.EventSpanEpoch,
		"trace %016x epoch %d stage=ship full=%v to %d workers", m.trace, b.epochSeq, full, workers)
	b.tel.Recordf(obs.EventClusterEpoch,
		"epoch %d distributed (full=%v, %d announcements)", b.epochSeq, full, len(anns))
	// The epoch is durable state: a resumed coordinator must re-admit
	// workers with the same routing tables, not a stale set.
	b.save = true
	b.settle(now)
	return b.epochSeq
}

// tick is the heartbeat cadence: flush buffered flow batches, apply the
// liveness rule, heartbeat every worker, and every eighth tick solicit
// reports and save the ledger — the timed save catches ingest-only progress
// (flows buffering for orphaned shards) between report merges.
func (b *book) tick(now time.Time) {
	b.ticks++
	for i := range b.shards {
		b.flushShard(&b.shards[i])
	}
	for _, p := range b.peers {
		if !p.gone && b.live(p, now) && p.joined {
			p.out.ctrl(heartbeatFrame)
		}
	}
	if b.ticks%8 == 0 {
		b.requestReports(now)
		b.save = true
	}
	b.settle(now)
}

// live applies the liveness rule (see liveness) and drops p if it fails.
func (b *book) live(p *peer, now time.Time) bool {
	switch silent, stalled := p.judge(now, b.deadline, p.out); {
	case silent && !p.joined:
		b.refuse(p, false, "no hello before deadline", now)
	case silent:
		b.hbMisses++
		b.tel.Recordf(obs.EventHeartbeatMiss, "%s silent for %v; declaring dead", p.label(), b.deadline)
		b.lose(p, "heartbeat deadline", now)
	case stalled:
		b.lose(p, "outbound queue stalled behind its writer", now)
	default:
		return true
	}
	return false
}

// requestReports asks the owner of every owned, in-sync shard that is
// behind — or whose handoff still waits for the new owner's first report —
// for a fresh quiescent report, flushing its buffered flows first. A shard
// whose durable report covers its cursor under the book's epoch has nothing
// to add; one that covers it under another epoch is asked again. The request
// queues on the data plane, behind every flow frame of the shard, so the
// worker reads it at the shard's cursor and answers once with a report that
// covers it. Each request carries a trace ID and the send time; the report
// echoes both, closing the round-trip histogram. Requests recur
// (Checkpoint's re-request, the tick's report round), so a data plane too
// full to take one just skips a round.
func (b *book) requestReports(now time.Time) {
	for i := range b.shards {
		s := &b.shards[i]
		if s.owner == nil || s.revoking || !(b.behind(s) || s.span != nil) {
			continue
		}
		b.flushToOwner(s)
		s.owner.out.data(encodeShardCtrl(msgReportReq,
			shardCtrlMsg{shard: s.id, trace: b.nextTrace(), nanos: now.UnixNano()}))
	}
}

// closeAll drops every connection: the coordinator is shutting down.
func (b *book) closeAll(now time.Time) {
	for _, p := range b.peers {
		b.lose(p, "coordinator closed", now)
	}
	b.settle(now)
}

// --- decisions ---------------------------------------------------------------

// hello authenticates p's first frame and, if it holds, joins the worker:
// the cached full epoch is replayed to it and shards rebalance.
func (b *book) hello(p *peer, body []byte, now time.Time) {
	if body[0] != msgHello {
		b.refuse(p, false, fmt.Sprintf("message type %d before the hello", body[0]), now)
		return
	}
	m, err := decodeHello(body)
	if err != nil {
		b.refuse(p, false, "malformed hello: "+err.Error(), now)
		return
	}
	if m.identity == "" {
		b.refuse(p, false, "hello with empty identity", now)
		return
	}
	if !hmac.Equal(helloMAC(b.secret, p.nonce, m.identity, m.name), m.mac) {
		// Wrong secret, or a hello captured from another connection: the
		// MAC binds to this connection's nonce, so replays land here too.
		b.refuse(p, false, fmt.Sprintf("hello MAC mismatch for identity %q", m.identity), now)
		return
	}
	if other := b.worker(m.identity); other != nil {
		// A second connection claiming a live identity is a zombie (or an
		// impostor who stole the secret): the established link wins, and a
		// genuinely redialing worker gets in once its old link dies at the
		// liveness deadline.
		b.refuse(p, true, fmt.Sprintf("identity %q already connected as %s", m.identity, other.label()), now)
		return
	}
	p.id, p.name, p.joined = m.identity, m.name, true
	b.tel.Recordf(obs.EventWorkerJoin, "%s joined (%d links)", p.label(), b.workers())
	if b.epochFull != nil {
		// Re-stamp the cached frame with the book's sequence, a fresh trace
		// and ship time. A bump leaves the tables as they were, so the full
		// frame is current under the newer sequence, and the joiner's reports
		// state the epoch the merged checkpoint does. The joiner's
		// propagation span measures its own delivery, not the age of the
		// original distribution.
		trace := b.nextTrace()
		if !p.out.ctrl(stampEpochFrame(b.epochFull, b.epochSeq, trace, now.UnixNano())) {
			// The joiner would be sent flows it has no epoch for.
			b.lose(p, "control queue full at hello", now)
			return
		}
		p.epochSeq = b.epochSeq
		b.tel.Recordf(obs.EventSpanEpoch,
			"trace %016x epoch stage=ship (replay to joiner %s)", trace, p.label())
	}
	b.rebalanceDue = true
	b.wake = true
}

// refuse drops an unauthenticated connection, counting the reason.
func (b *book) refuse(p *peer, identity bool, reason string, now time.Time) {
	if identity {
		b.n.IdentityRejects++
	} else {
		b.n.AuthFailures++
	}
	b.tel.Recordf(obs.EventAuthFailure, "%s; dropping connection", reason)
	b.lose(p, reason, now)
}

// lose drops p: it is queued for disconnection and, if it was a worker, its
// shards are orphaned for the end of the step to reassign from their last
// durable report plus the replay buffer. Idempotent.
func (b *book) lose(p *peer, reason string, now time.Time) {
	if p.gone {
		return
	}
	p.gone = true
	b.kills = append(b.kills, p)
	b.wake = true
	if !p.joined {
		return
	}
	b.tel.Recordf(obs.EventWorkerDead, "%s: %s", p.label(), reason)
	for i := range b.shards {
		s := &b.shards[i]
		if s.owner != p {
			continue
		}
		s.owner = nil
		s.revoking, s.revokePending = false, false
		s.sentCursor = s.ackBase
		b.n.Handoffs++
		b.startSpan(s, "failover", now)
		b.tel.Recordf(obs.EventShardHandoff,
			"shard %d orphaned by %s at cursor %d (acked %d, %d flows to replay)",
			s.id, p.label(), s.cursor, s.ackBase, s.cursor-s.ackBase)
	}
	b.rebalanceDue = true
}

// settle ends every step that can drop a peer: the dropped peers leave the
// book and ownership rebalances until no decision is left pending — a
// rebalance that drops a peer whose control queue is full runs again.
func (b *book) settle(now time.Time) {
	for {
		b.peers = slices.DeleteFunc(b.peers, func(p *peer) bool { return p.gone })
		if !b.rebalanceDue {
			break
		}
		b.rebalanceDue = false
		b.rebalance(now)
	}
	orphaned := b.orphaned()
	if orphaned > 0 && !b.degraded {
		b.tel.Recordf(obs.EventClusterDegraded, "%d shards orphaned; serving degraded", orphaned)
	}
	if orphaned == 0 && b.degraded {
		b.tel.Record(obs.EventClusterRecovered, "all shards owned again")
	}
	b.degraded = orphaned > 0
}

// report merges a worker's shard report, if the sender owns the shard and the
// report is consistent: its cursor inside [ackBase, sentCursor] and equal to
// the Processed count its own checkpoint carries.
func (b *book) report(p *peer, m reportMsg, now time.Time) {
	if int(m.shard) >= len(b.shards) {
		b.n.StaleReports++
		return
	}
	s := &b.shards[m.shard]
	if s.owner != p {
		// A zombie: the reporter lost the shard (declared dead or revoked)
		// after sending. Accepting it would double-count the replay the new
		// owner is also processing.
		b.n.StaleReports++
		b.tel.Recordf(obs.EventStaleReportRejected,
			"shard %d report from %s ignored: not the owner", m.shard, p.label())
		return
	}
	if m.cursor < s.ackBase || m.cursor > s.sentCursor {
		b.lose(p, fmt.Sprintf("shard %d report cursor %d outside [%d,%d]",
			m.shard, m.cursor, s.ackBase, s.sentCursor), now)
		return
	}
	// A report that claims another position than its checkpoint holds would
	// be merged short (or long) of the flows it acknowledges, and — since a
	// shard that looks caught up is not asked again — stay that way.
	head, err := core.CheckpointHeader(m.checkpoint)
	if err != nil || head.Processed != m.cursor {
		b.n.ReportMismatches++
		b.lose(p, fmt.Sprintf("shard %d report claims cursor %d, its checkpoint says %d (%v)",
			m.shard, m.cursor, head.Processed, err), now)
		return
	}
	// A solicited report echoes the request's send time, so the round trip
	// is measured on the coordinator's clock alone. Only a negative one — the
	// wall clock stepped back — is no measurement; a clock that stood still
	// reads zero.
	if m.reqNanos > 0 && b.rttHist != nil {
		if rtt := now.Sub(time.Unix(0, m.reqNanos)); rtt >= 0 {
			b.rttHist.Observe(rtt.Seconds())
		}
	}
	b.spanResumed(s, p, now)
	// Compact in place: reslicing from the front would shed the capacity in
	// front of the tail, and ingest's appends would regrow the buffer for as
	// long as the feed runs.
	s.replay = s.replay[:copy(s.replay, s.replay[(m.cursor-s.ackBase)*flowWireLen:])]
	s.ackBase = m.cursor
	s.lastReport, s.reportEpoch = m.checkpoint, uint64(head.Epoch)
	if m.final && s.revoking {
		s.owner = nil
		// A graceful move must stick: the revoked owner stays connected, so
		// leaving its identity here would reclaim the shard right back.
		s.lastOwner = ""
		s.revoking = false
		s.sentCursor = s.ackBase
		b.rebalanceDue = true
	}
	// A merged report is the durability point handoff resumes from.
	b.save, b.wake = true, true
}

// rebalance assigns orphaned shards — to their last owner's identity when it
// is connected, else to the least-loaded worker — and, while ownership counts
// differ by more than one, gracefully revokes a shard from the most-loaded
// worker; the revoked shard moves when its final report lands.
func (b *book) rebalance(now time.Time) {
	owned := make(map[*peer]int, len(b.peers))
	for _, p := range b.peers {
		if p.joined && !p.gone {
			owned[p] = 0
		}
	}
	if len(owned) == 0 {
		return
	}
	for i := range b.shards {
		if o := b.shards[i].owner; o != nil {
			owned[o]++
		}
	}
	// extreme walks the workers in join order: the least loaded is the
	// latest of equals — a joiner takes the shards freed for it — and the
	// most loaded the earliest.
	extreme := func(better func(n, best int) bool) *peer {
		var best *peer
		for _, p := range b.peers {
			if n, ok := owned[p]; ok && !p.gone && (best == nil || better(n, owned[best])) {
				best = p
			}
		}
		return best
	}
	least := func() *peer { return extreme(func(n, best int) bool { return n <= best }) }
	most := func() *peer { return extreme(func(n, best int) bool { return n > best }) }
	// Reclaim pass: a redialing (or restarted-coordinator) worker resumes
	// exactly the shards it held, instead of being treated as a stranger.
	for i := range b.shards {
		s := &b.shards[i]
		if s.owner != nil || s.lastOwner == "" {
			continue
		}
		if p := b.worker(s.lastOwner); p != nil {
			b.n.Reclaims++
			b.tel.Recordf(obs.EventShardReclaim, "shard %d reclaimed by %s", s.id, p.label())
			b.assign(s, p, now)
			owned[p]++
		}
	}
	for i := range b.shards {
		s := &b.shards[i]
		if s.owner != nil {
			continue
		}
		dst := least()
		if dst == nil {
			return
		}
		b.assign(s, dst, now)
		owned[dst]++
	}
	for {
		max, min := most(), least()
		if max == nil || owned[max]-owned[min] <= 1 {
			return
		}
		i := slices.IndexFunc(b.shards, func(s shard) bool { return s.owner == max && !s.revoking })
		if i < 0 {
			return
		}
		s := &b.shards[i]
		s.revoking = true
		// Push any still-buffered flows ahead of the revoke frame, so the
		// final report covers the whole stream prefix and the new owner
		// starts with an empty replay.
		b.flushToOwner(s)
		b.n.Rebalances++
		b.startSpan(s, "rebalance", now)
		b.tel.Recordf(obs.EventShardRevoke, "shard %d revoked from %s for rebalance", s.id, max.label())
		b.revoke(s)
		owned[max]--
	}
}

// assign hands s to p from its last durable report. A control queue too full
// to take the assign means a dead peer.
func (b *book) assign(s *shard, p *peer, now time.Time) {
	s.owner, s.lastOwner = p, p.id
	s.revoking, s.revokePending = false, false
	s.sentCursor = s.ackBase
	m := assignMsg{
		shard:      s.id,
		trace:      b.spanReassigned(s, p, now),
		cursor:     s.ackBase,
		startNanos: b.startNanos,
		bucket:     b.bucket,
		checkpoint: s.lastReport,
	}
	if !p.out.ctrl(encodeAssign(m)) {
		b.lose(p, "control queue full at assign", now)
		return
	}
	b.tel.Recordf(obs.EventShardAssign, "shard %d -> %s from cursor %d (%d flows to replay)",
		s.id, p.label(), s.ackBase, s.cursor-s.ackBase)
	b.flushShard(s)
}

// flushShard sends the unsent suffix of the replay buffer to the owner —
// or, for a shard being revoked, retries a revoke its data plane refused.
func (b *book) flushShard(s *shard) {
	switch {
	case s.owner == nil:
	case !s.revoking:
		b.flushToOwner(s)
	case s.revokePending:
		b.revoke(s)
	}
}

// revoke queues s's revoke frame behind its flows. A data plane full of the
// flow batches the revoke must trail refuses it, and the tick retries once
// the writer drains room.
func (b *book) revoke(s *shard) {
	s.revokePending = !s.owner.out.data(encodeShardCtrl(msgRevoke, shardCtrlMsg{shard: s.id, trace: s.span.trace}))
}

// flushToOwner frames the flows [sentCursor, cursor) to the owner's data
// plane in batches, each built behind its length prefix in a buffer the
// writer handed back: the replay buffer's records are copied (or deflated)
// into it as they are. A full plane leaves the suffix buffered for the next
// flush; a plane that stays full is the liveness rule's business. Until a
// full epoch exists the flows stay in the replay buffer: a worker has
// nothing to classify them under, and refuses them. Every owner has been
// sent the full epoch on its control plane, which the writer empties ahead
// of the data plane, so it reads the epoch before any flow.
func (b *book) flushToOwner(s *shard) {
	p := s.owner
	if p == nil || b.epochFull == nil {
		return
	}
	for s.sentCursor < s.cursor {
		n := min(s.cursor-s.sentCursor, b.flowBatch)
		off := (s.sentCursor - s.ackBase) * flowWireLen
		recs := s.replay[off : off+n*flowWireLen]
		frame := beginFrame(p.out.buffer())
		if b.compress {
			frame = b.deflater.appendFlowsZ(frame, s.id, s.sentCursor, recs)
		} else {
			frame = appendFlows(frame, s.id, s.sentCursor, recs)
		}
		if !p.out.data(sealFrame(frame)) {
			p.out.recycle(frame)
			return
		}
		s.sentCursor += n
	}
}

// --- views -------------------------------------------------------------------

// worker returns the live joined peer with identity id, or nil.
func (b *book) worker(id string) *peer {
	for _, p := range b.peers {
		if p.joined && !p.gone && p.id == id {
			return p
		}
	}
	return nil
}

// workers counts live joined peers.
func (b *book) workers() int {
	n := 0
	for _, p := range b.peers {
		if p.joined && !p.gone {
			n++
		}
	}
	return n
}

// orphaned counts shards with no owner and flows waiting for one.
func (b *book) orphaned() int {
	return b.count(func(s *shard) bool { return s.owner == nil && s.cursor > s.ackBase })
}

// behindShards counts the shards that are behind.
func (b *book) behindShards() int { return b.count(func(s *shard) bool { return b.behind(s) }) }

func (b *book) count(f func(*shard) bool) int {
	n := 0
	for i := range b.shards {
		if f(&b.shards[i]) {
			n++
		}
	}
	return n
}

// replayLen counts the flows buffered awaiting a durable report.
func (b *book) replayLen() int {
	n := 0
	for i := range b.shards {
		n += b.shards[i].replayFlows()
	}
	return n
}

// replayFlows counts the flows in s's replay buffer.
func (s *shard) replayFlows() int { return len(s.replay) / flowWireLen }

// stats renders the book's counters.
func (b *book) stats() Stats {
	st := b.n
	st.Workers, st.Conns, st.Orphaned, st.ReplayFlows = b.workers(), len(b.peers), b.orphaned(), b.replayLen()
	st.FlowsRouted, st.EpochSeq = b.flowsRouted, b.epochSeq
	return st
}
