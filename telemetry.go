package spoofscope

// Telemetry facade: re-exports internal/obs in the package's public
// vocabulary so deployments can scrape a live runtime without importing
// internal packages. One Telemetry bundle serves a whole process — the
// runtime and its BGP feed both register into the same registry and
// journal.

import "spoofscope/internal/obs"

// Telemetry types, re-exported from internal/obs.
type (
	// Telemetry bundles a metric registry, an event journal, and a health
	// source; pass one to LiveRuntimeConfig.Telemetry.
	Telemetry = obs.Telemetry
	// MetricsServer is the embedded HTTP server exposing /metrics,
	// /healthz, /events, and /debug/pprof.
	MetricsServer = obs.Server
	// JournalEvent is one entry of the bounded structured event journal.
	JournalEvent = obs.Event
	// Health is the /healthz verdict: readiness plus a status string.
	Health = obs.Health
)

// NewTelemetry builds an empty telemetry bundle.
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// ServeMetrics binds addr (host:port; port 0 for ephemeral) and serves the
// telemetry endpoints in a background goroutine until the returned server
// is closed.
func ServeMetrics(addr string, t *Telemetry) (*MetricsServer, error) {
	return obs.Serve(addr, t)
}
