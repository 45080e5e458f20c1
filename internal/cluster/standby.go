package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"spoofscope/internal/obs"
)

// StandbyConfig configures a warm-standby coordinator.
type StandbyConfig struct {
	// Coordinator is the configuration the standby promotes itself with. It
	// must match the primary's (same Shards, Start, Bucket, Secret) and its
	// LedgerPath must point at the ledger the primary persists — that file
	// is the entire handoff channel between the two. Its heartbeat interval
	// paces the bind attempts and the ledger tailing.
	Coordinator Config
	// Listen attempts to bind the cluster's listen address. While the
	// primary is alive the bind fails (address in use); the first success
	// IS the death signal, because the primary holds the address for its
	// whole life. Using bind acquisition as the failover lock means at most
	// one coordinator ever accepts workers.
	Listen func() (net.Listener, error)
}

// RunStandby runs the warm-standby loop: it tails the persisted shard
// ledger (staying ready to promote even if the shared disk briefly lags)
// and repeatedly tries to bind the cluster address. When the bind succeeds
// — the primary is gone — it promotes: builds a coordinator from the
// freshest ledger and returns it with the held listener, ready for Serve.
// Workers redial through their own retry schedules and reclaim their
// shards by identity, so exactly-once merge holds across the takeover.
//
// The returned listener is NOT being served yet; the caller runs
// coordinator.Serve(ln), keeping the serve loop under its own lifecycle.
// RunStandby returns ctx.Err() if cancelled before promotion.
func RunStandby(ctx context.Context, cfg StandbyConfig) (*Coordinator, net.Listener, error) {
	if cfg.Listen == nil {
		return nil, nil, fmt.Errorf("cluster: StandbyConfig.Listen is required")
	}
	path := cfg.Coordinator.LedgerPath
	if path == "" {
		return nil, nil, fmt.Errorf("cluster: standby requires a LedgerPath to tail")
	}
	tel := cfg.Coordinator.Telemetry
	t := time.NewTicker(cfg.Coordinator.interval())
	defer t.Stop()
	// warm is the freshest ledger successfully read — a book with every
	// shard orphaned; promotion falls back to it if the final read races a
	// primary write and fails. The standby serves it on /cluster (Role
	// "standby") so operators can inspect takeover readiness; on promotion
	// the coordinator re-publishes the path with its live view.
	var (
		warmMu sync.Mutex
		warm   *book
	)
	tel.PublishJSON("/cluster", func() any {
		warmMu.Lock()
		defer warmMu.Unlock()
		if warm == nil {
			return FleetStatus{Role: "standby", Ledger: LedgerStatus{Path: path}}
		}
		return warm.status("standby", path)
	})
	for {
		if lg, err := loadLedgerFile(path); err == nil {
			warmMu.Lock()
			warm = lg
			warmMu.Unlock()
		}
		ln, err := cfg.Listen()
		if err == nil {
			// Primary is dead. Prefer the ledger as it is on disk right
			// now — the primary cannot write again — over the warm copy,
			// which the promoted coordinator then owns alone.
			lg, lerr := loadLedgerFile(path)
			warmMu.Lock()
			if lerr != nil {
				lg = warm
			}
			warm = nil
			warmMu.Unlock()
			coord, cerr := newCoordinator(cfg.Coordinator, lg, wallClock{})
			if cerr != nil {
				ln.Close()
				return nil, nil, cerr
			}
			tel.Recordf(obs.EventTakeover,
				"standby promoted on %s: resuming at %d flows routed", ln.Addr(), coord.Stats().FlowsRouted)
			return coord, ln, nil
		}
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-t.C:
		}
	}
}
