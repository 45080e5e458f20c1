// Cluster observability plane (DESIGN.md §5g): wire trace spans and the
// fleet status API. Spans stamp a trace ID onto epoch, assign, revoke, and
// report-request frames; both ends record stage timestamps into their own
// process's histograms, so handoff and rebuild latency are measurements,
// not test-only assertions. Every process — coordinator or worker daemon —
// serves its own series on its own /metrics; /cluster is the fleet's one
// status endpoint.
package cluster

import (
	"crypto/rand"
	"encoding/binary"
	"slices"
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
	// on the coordinator's clock via the echoed request timestamp. The
	// request trails its shard's queued flow frames, so the round trip
	// includes writing them and the worker classifying them.
	MetricReportRTT = "spoofscope_cluster_report_rtt_seconds"
	// MetricWorkerClassFlows is the per-worker, per-class flow tally a
	// worker exports on its own registry; summing it over every worker's
	// scrape gives the fleet's per-class totals.
	MetricWorkerClassFlows = "spoofscope_cluster_worker_class_flows_total"
	// MetricWorkerShardCursor is a worker's per-shard stream position,
	// registered while it owns the shard.
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

// nextTrace mints a trace ID: random incarnation bits plus a counter.
func (b *book) nextTrace() uint64 {
	b.traceSeq++
	return b.traceBase ^ b.traceSeq
}

// handoffSpan tracks one shard ownership transfer from the moment the old
// owner is gone (or told to go) until the new owner's first report.
type handoffSpan struct {
	trace    uint64
	kind     string // "failover" (owner died) or "rebalance" (graceful)
	start    time.Time
	assigned time.Time // zero until the reassign stage
}

// startSpan opens a handoff span on s. An unresolved prior span — a graceful
// revoke whose owner died before the final report — is journaled as
// abandoned and replaced: its remaining stages can no longer happen. Span
// stages journal in a fixed grammar ("trace %016x shard %d stage=<stage>
// ...") so tests and log pipelines can pair them up.
func (b *book) startSpan(s *shard, kind string, now time.Time) {
	if s.span != nil {
		b.tel.Recordf(obs.EventSpanHandoff,
			"trace %016x shard %d stage=abandoned kind=%s after %v (superseded)",
			s.span.trace, s.id, s.span.kind, now.Sub(s.span.start))
	}
	s.span = &handoffSpan{trace: b.nextTrace(), kind: kind, start: now}
	b.tel.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=start kind=%s", s.span.trace, s.id, kind)
}

// spanReassigned records the reassign stage when a shard with an open span
// gets a new owner; returns the trace for the assign frame.
func (b *book) spanReassigned(s *shard, p *peer, now time.Time) uint64 {
	if s.span == nil {
		return 0
	}
	s.span.assigned = now
	elapsed := now.Sub(s.span.start)
	if b.handoffReassign != nil {
		b.handoffReassign.Observe(elapsed.Seconds())
	}
	b.tel.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=reassign kind=%s to %s after %v",
		s.span.trace, s.id, s.span.kind, p.label(), elapsed)
	return s.span.trace
}

// spanResumed completes an open span on the first report from the new owner.
// The guard on assigned keeps the old owner's final drain report (the revoke
// path: span open, not yet reassigned) from closing the span early.
func (b *book) spanResumed(s *shard, p *peer, now time.Time) {
	if s.span == nil || s.span.assigned.IsZero() {
		return
	}
	elapsed := now.Sub(s.span.start)
	if b.handoffResumed != nil {
		b.handoffResumed.Observe(elapsed.Seconds())
	}
	b.tel.Recordf(obs.EventSpanHandoff,
		"trace %016x shard %d stage=resumed kind=%s by %s after %v",
		s.span.trace, s.id, s.span.kind, p.label(), elapsed)
	s.span = nil
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

// WorkerStatus is one live worker's row in the fleet status. A dead worker
// drops out of this list; ShardStatus.LastOwner and the journal's
// worker-dead event keep it visible.
type WorkerStatus struct {
	Identity string    `json:"identity"`
	Name     string    `json:"name,omitempty"`
	LastSeen time.Time `json:"lastSeen,omitempty"`
	// EpochSeq is the sequence of the last epoch frame shipped on the
	// worker's link — the epoch it classifies with once the frame lands.
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

// status renders the book as the /cluster payload. A standby renders its
// decoded ledger copy: no workers, every shard with flows past its durable
// report orphaned.
func (b *book) status(role, ledgerPath string) FleetStatus {
	st := FleetStatus{
		Role:        role,
		EpochSeq:    b.epochSeq,
		FlowsRouted: b.flowsRouted,
		Orphaned:    b.orphaned(),
		ReplayFlows: b.replayLen(),
		Handoffs:    b.n.Handoffs,
		Rebalances:  b.n.Rebalances,
		Reclaims:    b.n.Reclaims,
		Ledger: LedgerStatus{
			Path:      ledgerPath,
			Writes:    b.n.LedgerWrites,
			Errors:    b.n.LedgerErrors,
			LastBytes: b.ledgerBytes,
		},
	}
	ownedBy := make(map[*peer]int)
	for i := range b.shards {
		s := &b.shards[i]
		row := ShardStatus{
			ID:          s.id,
			LastOwner:   s.lastOwner,
			Revoking:    s.revoking,
			Cursor:      s.cursor,
			SentCursor:  s.sentCursor,
			AckBase:     s.ackBase,
			ReplayDepth: s.replayFlows(),
			Lag:         s.cursor - s.ackBase,
		}
		if s.owner != nil {
			row.Owner = s.owner.id
			ownedBy[s.owner]++
		}
		st.Shards = append(st.Shards, row)
	}
	for _, p := range b.peers {
		if !p.joined || p.gone {
			continue
		}
		st.Workers = append(st.Workers, WorkerStatus{
			Identity: p.id,
			Name:     p.name,
			LastSeen: p.heard,
			EpochSeq: p.epochSeq,
			Shards:   ownedBy[p],
		})
	}
	slices.SortFunc(st.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.Identity, b.Identity) })
	return st
}
