package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Health is a readiness verdict, the /healthz payload.
type Health struct {
	// Ready reports whether the component can do useful work right now —
	// for the live runtime, whether a first routing-state epoch has been
	// promoted. Load balancers and orchestrators gate on this.
	Ready bool `json:"ready"`
	// Status is "ok", "degraded" (serving, but verdicts are marked stale)
	// or "unready".
	Status string `json:"status"`
	// Detail is a human-readable explanation of a non-ok status.
	Detail string `json:"detail,omitempty"`
}

// Telemetry bundles the three observability primitives a component is
// wired with: the metric registry, the event journal, and a health source.
// One Telemetry typically serves one process, shared by the runtime and its
// BGP feed (or a cluster coordinator and its in-process workers), and
// exposed by one Server.
type Telemetry struct {
	Metrics *Registry
	Journal *Journal

	health atomic.Pointer[func() Health]

	statusMu sync.Mutex
	status   map[string]func() any
}

// MetricJournalDropped counts journal events evicted from the bounded ring;
// paired with the Gap marker in /events it tells an incremental poller that
// history was lost between two polls.
const MetricJournalDropped = "spoofscope_journal_dropped_total"

// NewTelemetry builds a Telemetry with an empty registry and a
// default-capacity journal. The journal's eviction counter is pre-wired as
// MetricJournalDropped so ring overflow is visible from /metrics.
func NewTelemetry() *Telemetry {
	t := &Telemetry{Metrics: NewRegistry(), Journal: NewJournal(0)}
	t.Metrics.CounterFunc(MetricJournalDropped,
		"Journal events evicted from the bounded ring to make room for newer ones.",
		t.Journal.Dropped)
	return t
}

// PublishJSON mounts a JSON status page at path on any server built from
// this Telemetry: each request evaluates fn and renders the result as
// indented JSON. Re-publishing a path replaces its source (latest wins —
// a promoted standby takes over /cluster from its warm-ledger view this
// way). Safe on a nil Telemetry.
func (t *Telemetry) PublishJSON(path string, fn func() any) {
	if t == nil || path == "" || path == "/" {
		return
	}
	t.statusMu.Lock()
	defer t.statusMu.Unlock()
	if t.status == nil {
		t.status = make(map[string]func() any)
	}
	t.status[path] = fn
}

// statusPage returns the published source for path, if any.
func (t *Telemetry) statusPage(path string) (func() any, bool) {
	if t == nil {
		return nil, false
	}
	t.statusMu.Lock()
	defer t.statusMu.Unlock()
	fn, ok := t.status[path]
	return fn, ok
}

// statusPaths lists the published page paths, sorted.
func (t *Telemetry) statusPaths() []string {
	if t == nil {
		return nil
	}
	t.statusMu.Lock()
	defer t.statusMu.Unlock()
	paths := make([]string, 0, len(t.status))
	for p := range t.status {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// SetHealth installs the readiness source (typically the live runtime's;
// the last caller wins). A nil receiver is a no-op.
func (t *Telemetry) SetHealth(fn func() Health) {
	if t == nil {
		return
	}
	t.health.Store(&fn)
}

// Health evaluates the installed readiness source. Without one — or on a
// nil receiver — it reports ready/ok, so a metrics-only process is not
// spuriously unready.
func (t *Telemetry) Health() Health {
	if t == nil {
		return Health{Ready: true, Status: "ok"}
	}
	if fn := t.health.Load(); fn != nil {
		return (*fn)()
	}
	return Health{Ready: true, Status: "ok"}
}

// Record forwards to the journal; safe on a nil Telemetry.
func (t *Telemetry) Record(kind, msg string) {
	if t == nil {
		return
	}
	t.Journal.Record(kind, msg)
}

// Recordf forwards to the journal with formatting; safe on a nil Telemetry.
func (t *Telemetry) Recordf(kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.Journal.Recordf(kind, format, args...)
}
