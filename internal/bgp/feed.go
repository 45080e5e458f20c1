package bgp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"spoofscope/internal/obs"
	"spoofscope/internal/retry"
)

// SessionState is the supervision state of a Feed.
type SessionState int32

// Feed states.
const (
	StateIdle SessionState = iota
	StateConnecting
	StateEstablished
	StateBackoff
	StateClosed
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateConnecting:
		return "connecting"
	case StateEstablished:
		return "established"
	case StateBackoff:
		return "backoff"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FeedConfig names the route server a Feed follows and how persistently
// it re-dials it.
type FeedConfig struct {
	// Addr is the peer to dial (host:port).
	Addr string
	// Session configures each established session.
	Session SessionConfig
	// InitialBackoff (default 200ms) doubles per consecutive failed dial up
	// to MaxBackoff (default 30s), then holds there.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// Jitter spreads each backoff by ±this fraction (default 0.1) so a fleet
	// of collectors does not re-dial a recovering peer in lockstep. Negative
	// disables jitter.
	Jitter float64
	// MaxAttempts caps consecutive failed connection attempts before Run
	// gives up (0 = retry forever).
	MaxAttempts int
	// Seed drives the jitter RNG, making backoff schedules reproducible.
	Seed int64
	// Dial overrides the transport dialer (tests wrap it in faultnet). It
	// must abort when ctx is cancelled, as the default dialer does.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// FeedStats is a snapshot of a feed's supervision counters.
type FeedStats struct {
	State SessionState
	// Dials counts connection attempts, including the first.
	Dials int
	// Flaps counts established sessions that failed before their replay
	// finished.
	Flaps int
	// HoldExpiries counts the flaps caused by hold-timer expiry (a silent
	// peer) rather than transport or decode failure.
	HoldExpiries int
	// GiveUps counts terminal exits: MaxAttempts consecutive connection
	// attempts failed and Run returned the terminal error. A feed that
	// silently stops retrying is the worst BGP failure mode — the counter
	// (and the matching journal event and metric) make it alert-able
	// instead of discoverable only by polling.
	GiveUps int
	// LastError is the most recent dial/session failure ("" if none).
	LastError string
}

// Feed follows a route server: it dials and handshakes a Session, collects
// each full replay (terminated by the peer's orderly CEASE) into a fresh
// RIB for the epoch builder, and re-dials for the next replay. A session
// that fails mid-replay is a flap: its partial table is dropped and the
// consumer is told, so it can mark verdicts stale instead of silently
// classifying against old state. Failed dials back off with retry.Backoff,
// the schedule the cluster worker's coordinator link uses. Stats is safe
// from any goroutine while Run runs.
type Feed struct {
	cfg     FeedConfig
	backoff *retry.Backoff
	journal *obs.Journal // nil = silent

	mu sync.Mutex
	st FeedStats
}

// NewFeed builds a feed; no connection is made until Run. A non-nil tel
// registers the supervision metrics (labeled peer=Addr) with its registry
// and journals establish/flap/give-up transitions.
func NewFeed(cfg FeedConfig, tel *obs.Telemetry) *Feed {
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return new(net.Dialer).DialContext(ctx, "tcp", addr)
		}
	}
	f := &Feed{cfg: cfg, backoff: retry.New(cfg.InitialBackoff, cfg.MaxBackoff, cfg.Jitter, cfg.Seed)}
	if tel != nil {
		f.journal = tel.Journal
		f.register(tel.Metrics)
	}
	return f
}

// register exposes the supervision counters through the metric registry.
// Every metric reads Stats, so a scrape and a Stats call never disagree.
func (f *Feed) register(m *obs.Registry) {
	peer := obs.Label{Name: "peer", Value: f.cfg.Addr}
	counter := func(name, help string, get func(FeedStats) int) {
		m.CounterFunc(name, help, func() uint64 { return uint64(get(f.Stats())) }, peer)
	}
	m.GaugeFunc("spoofscope_bgp_session_state",
		"Supervision state: 0 idle, 1 connecting, 2 established, 3 backoff, 4 closed.",
		func() float64 { return float64(f.Stats().State) }, peer)
	counter("spoofscope_bgp_dials_total",
		"BGP connection attempts, including the first.",
		func(st FeedStats) int { return st.Dials })
	counter("spoofscope_bgp_flaps_total",
		"Established BGP sessions that subsequently failed.",
		func(st FeedStats) int { return st.Flaps })
	counter("spoofscope_bgp_hold_expiries_total",
		"BGP flaps caused by hold-timer expiry (silent peer).",
		func(st FeedStats) int { return st.HoldExpiries })
	counter("spoofscope_bgp_giveups_total",
		"Terminal supervision exits: the MaxAttempts backoff budget was exhausted.",
		func(st FeedStats) int { return st.GiveUps })
}

// Stats returns a snapshot of the supervision counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *Feed) update(fn func(*FeedStats)) {
	f.mu.Lock()
	fn(&f.st)
	f.mu.Unlock()
}

// Run follows the peer until ctx is cancelled, onSnapshot returns false, or
// MaxAttempts consecutive connection attempts fail. Each complete replay's
// RIB goes to onSnapshot (ownership transfers: the feed never touches it
// again), and the peer is then re-dialed for the next one. A flap calls
// onGap (optional) with the session's error before the re-dial — the
// interval during which downstream state is known stale. Run returns nil
// when ctx or onSnapshot stops it, and the give-up error otherwise.
func (f *Feed) Run(ctx context.Context, onSnapshot func(*RIB) bool, onGap func(error)) error {
	defer f.update(func(st *FeedStats) { st.State = StateClosed })
	attempt := 1
	for ctx.Err() == nil {
		f.update(func(st *FeedStats) { st.State, st.Dials = StateConnecting, st.Dials+1 })
		sess, err := f.dial(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			f.update(func(st *FeedStats) { st.LastError = err.Error() })
			if f.cfg.MaxAttempts > 0 && attempt >= f.cfg.MaxAttempts {
				f.update(func(st *FeedStats) { st.GiveUps++ })
				f.journal.Recordf(obs.EventBGPGiveUp, "giving up on %s after %d attempts: %v", f.cfg.Addr, attempt, err)
				return fmt.Errorf("bgp: giving up on %s after %d attempts: %w", f.cfg.Addr, attempt, err)
			}
			f.update(func(st *FeedStats) { st.State = StateBackoff })
			if f.backoff.Sleep(ctx, attempt) != nil {
				return nil
			}
			attempt++
			continue
		}
		f.update(func(st *FeedStats) { st.State = StateEstablished })
		f.journal.Recordf(obs.EventBGPEstablish, "session to %s established (attempt %d)", f.cfg.Addr, attempt)
		attempt = 1
		rib, err := replay(ctx, sess)
		switch {
		case ctx.Err() != nil:
			return nil
		case err == nil:
			// Orderly CEASE: the replay is complete — a snapshot boundary.
			f.update(func(st *FeedStats) { st.State = StateIdle })
			if !onSnapshot(rib) {
				return nil
			}
		default:
			f.update(func(st *FeedStats) {
				st.Flaps++
				if errors.Is(err, ErrHoldExpired) {
					st.HoldExpiries++
				}
				st.LastError = err.Error()
			})
			f.journal.Recordf(obs.EventBGPFlap, "session to %s failed: %v; reconnecting", f.cfg.Addr, err)
			if onGap != nil {
				onGap(err)
			}
		}
	}
	return nil
}

// dial connects to the peer and runs the handshake; cancelling ctx aborts
// either.
func (f *Feed) dial(ctx context.Context) (*Session, error) {
	conn, err := f.cfg.Dial(ctx, f.cfg.Addr)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	return NewSession(conn, f.cfg.Session)
}

// replay reads one session's table into a fresh RIB until the peer's
// orderly CEASE (nil error) or a failure, then closes the session.
// Cancelling ctx closes it early.
func replay(ctx context.Context, sess *Session) (*RIB, error) {
	defer sess.Close()
	stop := context.AfterFunc(ctx, func() { sess.Close() })
	defer stop()
	rib := NewRIB()
	for {
		u, err := sess.Recv()
		if errors.Is(err, io.EOF) {
			return rib, nil
		}
		if err != nil {
			return nil, err
		}
		rib.ApplyUpdate(u)
	}
}
