package bgp

import (
	"errors"
	"io"
	"net"
)

// FeedConfig wires a supervised live session to an epoch builder.
type FeedConfig struct {
	// Reconnector supplies the supervised update stream. The Feed installs
	// its own OnEstablish and OnFlap hooks (chaining any the caller set). In
	// this repo's route-server model an orderly CEASE marks the end of a full
	// table replay — a snapshot boundary the Feed observes itself (Recv
	// returns io.EOF), after which it re-dials for the next replay.
	Reconnector ReconnectorConfig
	// OnSnapshot receives each complete routing table (ownership transfers:
	// the Feed never touches the RIB again) once the peer's replay finishes.
	// Returning false stops the Feed. This is where the live runtime builds
	// the next pipeline and swaps it in.
	OnSnapshot func(rib *RIB) bool
	// OnGap (optional) fires when the feed loses its session or starts a
	// fresh replay — the interval during which downstream state is known
	// stale. The live runtime marks itself degraded here.
	OnGap func(err error)
}

// Feed pumps a supervised BGP session into successive RIB snapshots: each
// full replay from the route server (terminated by the peer's orderly
// CEASE) accumulates in a fresh RIB and is handed to OnSnapshot, the epoch
// builder's input. Session flaps and replay restarts surface through OnGap
// so the consumer can mark verdicts stale instead of silently classifying
// against old state.
type Feed struct {
	cfg FeedConfig
	rec *Reconnector
	rib *RIB
}

// NewFeed builds the feed and its supervised reconnector.
func NewFeed(cfg FeedConfig) *Feed {
	f := &Feed{cfg: cfg}
	rcfg := cfg.Reconnector
	chainEstablish := rcfg.OnEstablish
	rcfg.OnEstablish = func(s *Session) error {
		// A new session means a replay from scratch: anything accumulated
		// so far is a partial table, so discard it.
		f.rib = NewRIB()
		if chainEstablish != nil {
			return chainEstablish(s)
		}
		return nil
	}
	chainFlap := rcfg.OnFlap
	rcfg.OnFlap = func(err error) {
		if f.cfg.OnGap != nil {
			f.cfg.OnGap(err)
		}
		if chainFlap != nil {
			chainFlap(err)
		}
	}
	f.rec = NewReconnector(rcfg)
	return f
}

// Reconnector exposes the underlying supervisor (for Stats).
func (f *Feed) Reconnector() *Reconnector { return f.rec }

// Run pumps updates until the feed is stopped. Each orderly CEASE closes
// out the current replay and delivers its RIB to OnSnapshot; the session is
// then re-dialed for the next replay unless OnSnapshot returned false. Run
// returns nil when OnSnapshot stops the feed or Close was called, and the
// supervisor's terminal error otherwise.
func (f *Feed) Run() error {
	defer f.rec.Close()
	for {
		u, err := f.rec.Recv()
		if err == nil {
			if f.rib == nil {
				f.rib = NewRIB()
			}
			f.rib.ApplyUpdate(u)
			continue
		}
		if errors.Is(err, io.EOF) {
			// Orderly CEASE: the replay is complete — snapshot boundary.
			rib := f.rib
			f.rib = nil
			if rib == nil {
				rib = NewRIB()
			}
			if f.cfg.OnSnapshot == nil || !f.cfg.OnSnapshot(rib) {
				return nil
			}
			continue
		}
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		return err
	}
}

// Close stops the feed, aborting any blocked Recv or backoff sleep.
func (f *Feed) Close() error { return f.rec.Close() }
