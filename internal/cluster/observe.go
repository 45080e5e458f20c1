// Cluster observability plane (DESIGN.md §5g): telemetry federation, wire
// trace spans, and the fleet status API.
//
// Federation folds each worker's periodic telemetry frame into the
// coordinator's registry as func-backed series reading a per-worker store
// under the coordinator lock, and interleaves forwarded journal events
// (deduplicated by origin sequence) into the coordinator's journal — one
// scrape of the coordinator shows the whole fleet. Spans stamp a trace ID
// onto epoch, assign, revoke, and report-request frames; both ends record
// stage timestamps into histograms, so handoff and rebuild latency are
// measurements, not test-only assertions.
package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"sort"
	"strings"
	"time"

	"spoofscope/internal/obs"
)

// Metric names of the observability plane, exported through these constants
// so tests and dashboards need not restate string literals.
const (
	// MetricEpochPropagation is observed by workers: seconds from the
	// coordinator stamping an epoch frame to the worker compiling it
	// (stage="compile") and to the first verdict classified under it
	// (stage="first-verdict"). Both ends read their own host clock, so
	// cross-machine skew shifts the distribution; on one host it is exact.
	MetricEpochPropagation = "spoofscope_cluster_epoch_propagation_seconds"
	// MetricHandoff is observed by the coordinator: seconds from a shard
	// losing its owner (revoke or death) to its reassignment
	// (stage="reassign") and to the first report from the new owner
	// (stage="resumed").
	MetricHandoff = "spoofscope_cluster_handoff_seconds"
	// MetricReportRTT is the report-request round-trip, measured entirely
	// on the coordinator's clock via the echoed request timestamp.
	MetricReportRTT = "spoofscope_cluster_report_rtt_seconds"
	// MetricWorkerClassFlows is the per-worker, per-class flow tally a
	// federating worker exports; the coordinator re-exposes it under the
	// same name with the worker label intact.
	MetricWorkerClassFlows = "spoofscope_cluster_worker_class_flows_total"
	// MetricWorkerShardCursor is a federating worker's per-shard stream
	// position.
	MetricWorkerShardCursor = "spoofscope_cluster_worker_shard_cursor"
)

// newTraceBase returns random high bits for trace IDs, so spans from
// successive coordinator incarnations (or a coordinator and its standby)
// never collide in a shared log pipeline.
func newTraceBase() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.BigEndian.Uint64(b[:])
}

// nextTraceLocked mints a trace ID: random incarnation bits plus a counter.
func (c *Coordinator) nextTraceLocked() uint64 {
	c.traceSeq++
	return c.traceBase ^ c.traceSeq
}

// handoffSpan tracks one shard ownership transfer from the moment the old
// owner is gone (or told to go) until the new owner's first report.
type handoffSpan struct {
	trace    uint64
	kind     string // "failover" (owner died) or "rebalance" (graceful)
	start    time.Time
	assigned time.Time // zero until the reassign stage
}

// startSpanLocked opens a handoff span on s. An unresolved prior span — a
// graceful revoke whose owner died before the final report — is journaled
// as abandoned and replaced: its remaining stages can no longer happen.
// Span stages journal in a fixed grammar ("trace %016x shard %d
// stage=<stage> ...") so tests and log pipelines can pair them up.
func (c *Coordinator) startSpanLocked(s *shardState, kind string, now time.Time) {
	if s.span != nil {
		c.cfg.Telemetry.Recordf(obs.EventSpanHandoff,
			"trace %016x shard %d stage=abandoned kind=%s after %v (superseded)",
			s.span.trace, s.id, s.span.kind, now.Sub(s.span.start))
	}
	s.span = &handoffSpan{trace: c.nextTraceLocked(), kind: kind, start: now}
	c.cfg.Telemetry.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=start kind=%s", s.span.trace, s.id, kind)
}

// spanReassignedLocked records the reassign stage when a shard with an open
// span gets a new owner; returns the trace for the assign frame.
func (c *Coordinator) spanReassignedLocked(s *shardState, l *link, now time.Time) uint64 {
	if s.span == nil {
		return 0
	}
	s.span.assigned = now
	elapsed := now.Sub(s.span.start)
	if c.handoffReassign != nil {
		c.handoffReassign.Observe(elapsed.Seconds())
	}
	c.cfg.Telemetry.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=reassign kind=%s to %s after %v",
		s.span.trace, s.id, s.span.kind, l.label(), elapsed)
	return s.span.trace
}

// spanResumedLocked completes an open span on the first report from the new
// owner. The guard on assigned keeps the old owner's final drain report (the
// revoke path: span open, not yet reassigned) from closing the span early.
func (c *Coordinator) spanResumedLocked(s *shardState, l *link, now time.Time) {
	if s.span == nil || s.span.assigned.IsZero() {
		return
	}
	elapsed := now.Sub(s.span.start)
	if c.handoffResumed != nil {
		c.handoffResumed.Observe(elapsed.Seconds())
	}
	c.cfg.Telemetry.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=resumed kind=%s by %s after %v",
		s.span.trace, s.id, s.span.kind, l.label(), elapsed)
	s.span = nil
}

// fedSeries is the coordinator-side store behind one federated metric
// sample: the registered func-backed series reads value/hist through this
// struct under the coordinator lock. gone marks a pruned series (its worker
// died); readers report zero so a racing scrape undercounts instead of
// double-counting replayed flows.
type fedSeries struct {
	name   string
	labels []obs.Label
	value  float64
	hist   obs.HistogramSnapshot
	gone   bool
}

// fedWorker is everything the coordinator remembers about one worker's
// telemetry stream, keyed by identity. It outlives the link: a dead
// worker's liveness and last-seen time stay visible in /cluster, and its
// event-dedup cursor survives a redial (a restart is detected by the
// changed journalStart).
type fedWorker struct {
	identity     string
	name         string
	live         bool
	lastSeen     time.Time
	epochSeq     uint64
	journalStart int64
	lastEventSeq uint64
	series       map[string]*fedSeries
}

// handleTelemetry folds one worker telemetry frame into the coordinator's
// registry and journal, and acks the highest journal sequence folded in.
func (c *Coordinator) handleTelemetry(l *link, m telemetryMsg) {
	now := time.Now()
	tel := c.cfg.Telemetry
	c.mu.Lock()
	if c.closed || l.id == "" {
		c.mu.Unlock()
		return
	}
	fw := c.fed[l.id]
	if fw == nil {
		fw = &fedWorker{identity: l.id, series: make(map[string]*fedSeries)}
		c.fed[l.id] = fw
		tel.Recordf(obs.EventTelemetryJoin, "federating telemetry from %s", l.label())
	}
	if fw.journalStart != m.journalStart {
		// A fresh journal generation: the worker restarted and its sequence
		// numbers restarted with it. Reset the dedup cursor.
		fw.journalStart = m.journalStart
		fw.lastEventSeq = 0
	}
	fw.name = l.label()
	fw.live = true
	fw.lastSeen = now
	fw.epochSeq = m.epochSeq
	if tel != nil {
		for _, ws := range m.samples {
			if !hasLabel(ws.labels, "worker") {
				// Defensive: a federated sample without a worker label would
				// collide with (and clobber) the coordinator's own series.
				continue
			}
			c.foldSampleLocked(fw, ws)
		}
	}
	var forward []obs.Event
	for _, e := range m.events {
		if e.Seq <= fw.lastEventSeq {
			continue
		}
		fw.lastEventSeq = e.Seq
		forward = append(forward, e)
	}
	ack := fw.lastEventSeq
	c.sendCtrlLocked(l, encodeTelemetryAck(ack))
	c.mu.Unlock()
	if tel != nil {
		for _, e := range forward {
			tel.Journal.RecordForwarded(l.id, e)
		}
	}
}

// foldSampleLocked updates (or registers) the coordinator-side store for
// one federated sample. Registration nests the registry lock inside the
// coordinator lock; scrapes take them in the same order (registry snapshot
// first, released before sampling), so there is no cycle.
func (c *Coordinator) foldSampleLocked(fw *fedWorker, ws wireSample) {
	key := ws.name + "\x00" + labelKeyOf(ws.labels)
	fs := fw.series[key]
	if fs == nil {
		fs = &fedSeries{name: ws.name, labels: append([]obs.Label(nil), ws.labels...)}
		fw.series[key] = fs
		m := c.cfg.Telemetry.Metrics
		switch ws.kind {
		case 1:
			m.GaugeFunc(ws.name, ws.help, func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if fs.gone {
					return 0
				}
				return fs.value
			}, fs.labels...)
		case 2:
			m.HistogramFunc(ws.name, ws.help, func() obs.HistogramSnapshot {
				c.mu.Lock()
				defer c.mu.Unlock()
				if fs.gone {
					return obs.HistogramSnapshot{}
				}
				return fs.hist
			}, fs.labels...)
		default:
			m.CounterFunc(ws.name, ws.help, func() uint64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				if fs.gone {
					return 0
				}
				return uint64(fs.value)
			}, fs.labels...)
		}
	}
	fs.value = ws.value
	fs.hist = ws.hist
}

// pruneFederatedLocked retires a dead worker's federated series: the
// registry entries are unregistered and the stores marked gone, so the next
// scrape never sums a dead worker's stale counters on top of the replay its
// successor is re-processing. The fedWorker itself stays (liveness history
// and the event-dedup cursor survive a redial).
func (c *Coordinator) pruneFederatedLocked(l *link) {
	fw := c.fed[l.id]
	if fw == nil {
		return
	}
	fw.live = false
	fw.lastSeen = time.Now()
	if len(fw.series) == 0 {
		return
	}
	if tel := c.cfg.Telemetry; tel != nil {
		for _, fs := range fw.series {
			fs.gone = true
			tel.Metrics.Unregister(fs.name, fs.labels...)
		}
		tel.Recordf(obs.EventTelemetryLost,
			"pruned %d federated series from %s", len(fw.series), l.label())
	}
	fw.series = make(map[string]*fedSeries)
}

func hasLabel(labels []obs.Label, name string) bool {
	for _, l := range labels {
		if l.Name == name {
			return true
		}
	}
	return false
}

// labelKeyOf mirrors the registry's canonical label key (sorted
// name=value pairs) for the federation store's map key.
func labelKeyOf(labels []obs.Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// --- fleet status API -------------------------------------------------------

// ShardStatus is one shard's row in the fleet status: who owns it, where
// its stream stands, and how far its durable state lags its cursor.
type ShardStatus struct {
	ID        uint32 `json:"id"`
	Owner     string `json:"owner,omitempty"`     // owner identity; empty = orphaned
	LastOwner string `json:"lastOwner,omitempty"` // reclaim key while orphaned
	Revoking  bool   `json:"revoking,omitempty"`
	// Cursor counts flows routed to the shard; AckBase counts flows durably
	// reported; SentCursor counts flows shipped to the current owner.
	Cursor     uint64 `json:"cursor"`
	SentCursor uint64 `json:"sentCursor"`
	AckBase    uint64 `json:"ackBase"`
	// ReplayDepth is the buffered flow count [AckBase, Cursor) — what a
	// handoff would replay; Lag is the same distance in flows, the
	// durability lag an operator alerts on.
	ReplayDepth int    `json:"replayDepth"`
	Lag         uint64 `json:"lag"`
}

// WorkerStatus is one worker's row in the fleet status.
type WorkerStatus struct {
	Identity string    `json:"identity"`
	Name     string    `json:"name,omitempty"`
	Live     bool      `json:"live"`
	LastSeen time.Time `json:"lastSeen,omitempty"`
	// EpochSeq is the routing epoch the worker last reported classifying
	// with (0 until its first telemetry frame).
	EpochSeq uint64 `json:"epochSeq"`
	Shards   int    `json:"shards"`
}

// LedgerStatus summarizes the persisted shard ledger.
type LedgerStatus struct {
	Path      string `json:"path,omitempty"`
	Writes    uint64 `json:"writes"`
	Errors    uint64 `json:"errors"`
	LastBytes uint64 `json:"lastBytes"`
}

// FleetStatus is the /cluster payload: the coordinator's live view of every
// shard and worker, plus ledger state. A warm standby publishes the same
// struct (Role "standby") from its tailed ledger copy, so monitoring and
// failover read one source of truth.
type FleetStatus struct {
	Role        string         `json:"role"` // "coordinator" or "standby"
	EpochSeq    uint64         `json:"epochSeq"`
	FlowsRouted uint64         `json:"flowsRouted"`
	Orphaned    int            `json:"orphaned"`
	ReplayFlows int            `json:"replayFlows"`
	Handoffs    uint64         `json:"handoffs"`
	Rebalances  uint64         `json:"rebalances"`
	Reclaims    uint64         `json:"reclaims"`
	Workers     []WorkerStatus `json:"workers"`
	Shards      []ShardStatus  `json:"shards"`
	Ledger      LedgerStatus   `json:"ledger"`
}

// FleetStatus snapshots the coordinator's cluster view.
func (c *Coordinator) FleetStatus() FleetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := FleetStatus{
		Role:        "coordinator",
		EpochSeq:    c.epochSeq,
		FlowsRouted: c.flowsRouted,
		Orphaned:    c.orphanedLocked(),
		ReplayFlows: c.replayLenLocked(),
		Handoffs:    c.handoffs,
		Rebalances:  c.rebalances,
		Reclaims:    c.reclaims,
		Ledger: LedgerStatus{
			Path:      c.cfg.LedgerPath,
			Writes:    c.ledgerWrites,
			Errors:    c.ledgerErrors,
			LastBytes: c.ledgerBytes,
		},
	}
	ownedBy := make(map[string]int)
	for _, s := range c.shards {
		row := ShardStatus{
			ID:          s.id,
			LastOwner:   s.lastOwner,
			Revoking:    s.revoking,
			Cursor:      s.cursor,
			SentCursor:  s.sentCursor,
			AckBase:     s.ackBase,
			ReplayDepth: len(s.replay),
			Lag:         s.cursor - s.ackBase,
		}
		if s.owner != nil {
			row.Owner = s.owner.id
			ownedBy[s.owner.id]++
		}
		st.Shards = append(st.Shards, row)
	}
	seen := make(map[string]bool)
	for l := range c.links {
		if l.id == "" {
			continue // still in the challenge/hello exchange
		}
		seen[l.id] = true
		w := WorkerStatus{
			Identity: l.id,
			Name:     l.name,
			Live:     true,
			LastSeen: time.Unix(0, l.lastRead.Load()),
			Shards:   ownedBy[l.id],
		}
		if fw := c.fed[l.id]; fw != nil {
			w.EpochSeq = fw.epochSeq
		}
		st.Workers = append(st.Workers, w)
	}
	// Dead workers the federation plane remembers: still listed, marked not
	// live, so a scrape after a crash shows who disappeared and when.
	for id, fw := range c.fed {
		if seen[id] {
			continue
		}
		st.Workers = append(st.Workers, WorkerStatus{
			Identity: id,
			Name:     fw.name,
			Live:     false,
			LastSeen: fw.lastSeen,
			EpochSeq: fw.epochSeq,
			Shards:   ownedBy[id],
		})
	}
	sortWorkers(st.Workers)
	return st
}

func sortWorkers(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Identity < ws[j-1].Identity; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// fleetStatusFromLedger renders a standby's warm ledger copy as the same
// FleetStatus the live coordinator serves: every shard orphaned (the
// standby owns nothing until promotion), cursors and replay depths from the
// last durable snapshot.
func fleetStatusFromLedger(path string, lg *ledger) FleetStatus {
	st := FleetStatus{
		Role:   "standby",
		Ledger: LedgerStatus{Path: path},
	}
	if lg == nil {
		return st
	}
	st.EpochSeq = lg.epochSeq
	st.FlowsRouted = lg.flowsRouted
	for i := range lg.shards {
		ls := &lg.shards[i]
		row := ShardStatus{
			ID:          uint32(i),
			LastOwner:   ls.lastOwner,
			Cursor:      ls.cursor,
			SentCursor:  ls.ackBase,
			AckBase:     ls.ackBase,
			ReplayDepth: len(ls.replay),
			Lag:         ls.cursor - ls.ackBase,
		}
		st.Shards = append(st.Shards, row)
		st.ReplayFlows += len(ls.replay)
		if ls.cursor > ls.ackBase {
			st.Orphaned++
		}
	}
	return st
}
