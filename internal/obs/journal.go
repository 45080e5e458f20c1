package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event kinds recorded by the runtime and its feeds. Keeping these as
// shared constants means an operator can alert on kinds without parsing
// message text.
const (
	EventEpochSwap       = "epoch-swap"
	EventDegraded        = "degraded"
	EventShedStart       = "shed-start"
	EventShedStop        = "shed-stop"
	EventCheckpoint      = "checkpoint"
	EventCheckpointError = "checkpoint-error"
	EventRebuild         = "rebuild"
	EventRebuildReused   = "rebuild-reused"
	EventBGPEstablish    = "bgp-establish"
	EventBGPFlap         = "bgp-flap"
	EventBGPGiveUp       = "bgp-giveup"

	// Cluster-mode lifecycle: shard ownership and worker liveness.
	EventShardAssign         = "shard-assign"
	EventShardHandoff        = "shard-handoff"
	EventShardRevoke         = "shard-revoke"
	EventWorkerJoin          = "worker-join"
	EventWorkerDead          = "worker-dead"
	EventHeartbeatMiss       = "heartbeat-miss"
	EventClusterEpoch        = "cluster-epoch"
	EventClusterDegraded     = "cluster-degraded"
	EventClusterRecovered    = "cluster-recovered"
	EventWorkerReconnect     = "worker-reconnect"
	EventStaleReportRejected = "stale-report-rejected"

	// Durable deployment: authenticated transports, the persisted shard
	// ledger, and coordinator failover.
	EventAuthFailure  = "auth-failure"
	EventConnRejected = "conn-rejected"
	EventAcceptError  = "accept-error"
	EventLedgerWrite  = "ledger-write"
	EventLedgerError  = "ledger-error"
	EventLedgerResume = "ledger-resume"
	EventTakeover     = "coordinator-takeover"
	EventShardReclaim = "shard-reclaim"

	// Cluster observability plane: wire-level trace spans (DESIGN.md §5g).
	EventSpanEpoch   = "span-epoch"
	EventSpanHandoff = "span-handoff"
)

// Event is one structured journal entry.
type Event struct {
	// Seq increases by one per recorded event, across drops: a gap-free
	// Seq range proves no event was lost between two reads.
	Seq uint64 `json:"seq"`
	// Wall is the wall-clock timestamp; Mono is the monotonic offset from
	// journal creation, immune to wall-clock steps during multi-week runs.
	Wall time.Time     `json:"wall"`
	Mono time.Duration `json:"mono"`
	Kind string        `json:"kind"`
	Msg  string        `json:"msg"`
}

// Journal is a bounded in-memory ring of structured events: epoch swaps,
// BGP flaps and reconnects, shedding watermark transitions, checkpoint
// writes and failures. When full, the oldest events are overwritten (and
// counted), so a misbehaving feed cannot grow the journal without bound. All methods are safe for concurrent use and safe on a nil
// journal (no-ops), so instrumented code needs no telemetry guards.
type Journal struct {
	mu      sync.Mutex
	start   time.Time // carries the monotonic clock reading
	ring    []Event
	head    int // index of the oldest event
	n       int
	seq     uint64
	dropped uint64
}

// DefaultJournalCapacity bounds a journal built by NewJournal(0).
const DefaultJournalCapacity = 1024

// NewJournal returns an empty journal holding up to capacity events
// (DefaultJournalCapacity when <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{start: time.Now(), ring: make([]Event, capacity)}
}

// Record appends one event, evicting the oldest when full.
func (j *Journal) Record(kind, msg string) {
	if j == nil {
		return
	}
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e := Event{Seq: j.seq, Wall: now, Mono: now.Sub(j.start), Kind: kind, Msg: msg}
	if j.n == len(j.ring) {
		j.ring[j.head] = e
		j.head = (j.head + 1) % len(j.ring)
		j.dropped++
		return
	}
	j.ring[(j.head+j.n)%len(j.ring)] = e
	j.n++
}

// Recordf is Record with fmt formatting.
func (j *Journal) Recordf(kind, format string, args ...any) {
	if j == nil {
		return
	}
	j.Record(kind, fmt.Sprintf(format, args...))
}

// Events returns a copy of the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, j.n)
	for i := 0; i < j.n; i++ {
		out[i] = j.ring[(j.head+i)%len(j.ring)]
	}
	return out
}

// EventsSince returns the retained events with Seq > since, oldest first,
// optionally restricted to one kind (empty kind matches all). gap reports
// that eviction lost events the caller has not seen: since names a sequence
// number older than the oldest retained event. A since of 0 means "from the
// beginning" and only gaps when events have actually been dropped. This is
// the incremental-poll primitive behind /events?since=.
func (j *Journal) EventsSince(since uint64, kind string) (events []Event, gap bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.n == 0 {
		return nil, false
	}
	oldest := j.seq - uint64(j.n) + 1
	gap = since+1 < oldest
	for i := 0; i < j.n; i++ {
		e := j.ring[(j.head+i)%len(j.ring)]
		if e.Seq <= since {
			continue
		}
		if kind != "" && e.Kind != kind {
			continue
		}
		events = append(events, e)
	}
	return events, gap
}

// Seq returns the sequence number of the most recently recorded event
// (0 before the first Record).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns how many events were evicted to make room.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Summary renders an operator-facing digest: per-kind totals over the
// retained window plus the trailing `tail` events. The cmd tools print it
// on shutdown so an interrupted run still tells its story.
func (j *Journal) Summary(tail int) string {
	if j == nil {
		return "journal: disabled"
	}
	events := j.Events()
	dropped := j.Dropped()
	if len(events) == 0 {
		return "journal: no events recorded"
	}
	byKind := map[string]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	fmt.Fprintf(&b, "journal: %d events retained", len(events))
	if dropped > 0 {
		fmt.Fprintf(&b, " (%d older dropped)", dropped)
	}
	b.WriteString("\n  by kind:")
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, byKind[k])
	}
	if tail > 0 {
		if tail > len(events) {
			tail = len(events)
		}
		fmt.Fprintf(&b, "\n  last %d:", tail)
		for _, e := range events[len(events)-tail:] {
			fmt.Fprintf(&b, "\n    [%8.3fs] %-16s %s", e.Mono.Seconds(), e.Kind, e.Msg)
		}
	}
	return b.String()
}
