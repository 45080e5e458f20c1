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

// SessionState is the supervision state of a Reconnector.
type SessionState int32

// Reconnector states.
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

// ReconnectorConfig parameterizes session supervision.
type ReconnectorConfig struct {
	// Addr is the peer to dial (host:port).
	Addr string
	// Session configures each established session.
	Session SessionConfig
	// InitialBackoff (default 200ms) doubles per consecutive failure up to
	// MaxBackoff (default 30s), then holds there.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// Jitter spreads each backoff by ±this fraction (default 0.1) so a fleet
	// of collectors does not re-dial a recovering peer in lockstep. Negative
	// disables jitter.
	Jitter float64
	// MaxAttempts caps consecutive failed connection attempts before Recv
	// gives up (0 = retry forever).
	MaxAttempts int
	// Context, when non-nil, bounds the supervisor's lifetime: backoff
	// sleeps and in-flight dials abort promptly when it is cancelled, and
	// Recv returns the context's error instead of running timers out.
	Context context.Context
	// Dial overrides the transport dialer (tests wrap it in faultnet). The
	// default dialer honors Context.
	Dial func(addr string) (net.Conn, error)
	// OnEstablish runs after every successful handshake, before any Recv on
	// the new session — the hook where a collector resets its RIB so the
	// peer's full replay rebuilds it from scratch. A non-nil error tears the
	// session down and aborts Recv.
	OnEstablish func(*Session) error
	// OnFlap runs when an established session fails (after the flap is
	// counted, before the re-dial) — the hook where a live runtime marks
	// itself degraded until the replacement session's state is rebuilt.
	OnFlap func(err error)
	// Seed drives the jitter RNG, making backoff schedules reproducible.
	Seed int64
	// Telemetry, when non-nil, registers session metrics (state, dials,
	// flaps, hold expiries — labeled peer=Addr) with its registry and
	// journals establish/flap/give-up transitions.
	Telemetry *obs.Telemetry
}

func (c *ReconnectorConfig) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// ReconnectorStats is a snapshot of supervision counters.
type ReconnectorStats struct {
	State SessionState
	// Dials counts connection attempts, including the first.
	Dials int
	// Flaps counts established sessions that subsequently failed.
	Flaps int
	// HoldExpiries counts the flaps caused by hold-timer expiry (a silent
	// peer) rather than transport or decode failure.
	HoldExpiries int
	// GiveUps counts terminal exits: MaxAttempts consecutive connection
	// attempts failed and Recv returned the terminal error. A supervisor
	// that silently stops retrying is the worst BGP failure mode — the
	// counter (and the matching journal event and metric) make it alert-able
	// instead of discoverable only by polling.
	GiveUps int
	// LastError is the most recent dial/session failure ("" if none).
	LastError string
}

// Reconnector supervises a BGP session: it dials on demand, re-dials with
// capped exponential backoff plus jitter when the session fails, and replays
// the OnEstablish hook on every re-establishment. Recv is the single-consumer
// read path, like Session.Recv; Close and Stats are safe from any goroutine.
type Reconnector struct {
	cfg     ReconnectorConfig
	journal *obs.Journal // nil = silent

	mu           sync.Mutex
	backoff      *retry.Backoff
	sess         *Session
	state        SessionState
	dials        int
	flaps        int
	holdExpiries int
	giveUps      int
	lastErr      error
	closed       chan struct{}
	closeOne     sync.Once
}

// NewReconnector builds a supervisor; no connection is made until Recv.
func NewReconnector(cfg ReconnectorConfig) *Reconnector {
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(cfg.ctx(), "tcp", addr)
		}
	}
	r := &Reconnector{
		cfg:     cfg,
		backoff: retry.New(cfg.InitialBackoff, cfg.MaxBackoff, cfg.Jitter, cfg.Seed),
		state:   StateIdle,
		closed:  make(chan struct{}),
	}
	if t := cfg.Telemetry; t != nil {
		r.journal = t.Journal
		r.register(t.Metrics)
	}
	return r
}

// register exposes the supervision counters through the metric registry.
// All metrics are func-backed over the same fields Stats() snapshots, so a
// scrape and a Stats() call can never disagree.
func (r *Reconnector) register(m *obs.Registry) {
	peer := obs.Label{Name: "peer", Value: r.cfg.Addr}
	locked := func(f func() uint64) func() uint64 {
		return func() uint64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return f()
		}
	}
	m.GaugeFunc("spoofscope_bgp_session_state",
		"Supervision state: 0 idle, 1 connecting, 2 established, 3 backoff, 4 closed.",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(r.state)
		}, peer)
	m.CounterFunc("spoofscope_bgp_dials_total",
		"BGP connection attempts, including the first.",
		locked(func() uint64 { return uint64(r.dials) }), peer)
	m.CounterFunc("spoofscope_bgp_flaps_total",
		"Established BGP sessions that subsequently failed.",
		locked(func() uint64 { return uint64(r.flaps) }), peer)
	m.CounterFunc("spoofscope_bgp_hold_expiries_total",
		"BGP flaps caused by hold-timer expiry (silent peer).",
		locked(func() uint64 { return uint64(r.holdExpiries) }), peer)
	m.CounterFunc("spoofscope_bgp_giveups_total",
		"Terminal supervision exits: the MaxAttempts backoff budget was exhausted.",
		locked(func() uint64 { return uint64(r.giveUps) }), peer)
}

// Recv returns the next UPDATE from the supervised session, transparently
// re-establishing it after failures. It returns io.EOF on the peer's orderly
// CEASE — the end of a finite replay, one table snapshot — net.ErrClosed
// after Close, and a terminal error once MaxAttempts consecutive connection
// attempts fail.
func (r *Reconnector) Recv() (*Update, error) {
	for {
		sess, err := r.ensure()
		if err != nil {
			return nil, err
		}
		u, err := sess.Recv()
		if err == nil {
			return u, nil
		}
		if r.isClosed() {
			return nil, net.ErrClosed
		}
		if errors.Is(err, io.EOF) {
			r.teardown(StateIdle)
			return nil, io.EOF
		}
		r.mu.Lock()
		r.flaps++
		if errors.Is(err, ErrHoldExpired) {
			r.holdExpiries++
		}
		r.lastErr = err
		r.mu.Unlock()
		r.journal.Recordf(obs.EventBGPFlap, "session to %s failed: %v; reconnecting", r.cfg.Addr, err)
		if r.cfg.OnFlap != nil {
			r.cfg.OnFlap(err)
		}
		r.teardown(StateConnecting)
	}
}

// Stats returns a snapshot of the supervision counters.
func (r *Reconnector) Stats() ReconnectorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := ReconnectorStats{State: r.state, Dials: r.dials, Flaps: r.flaps, HoldExpiries: r.holdExpiries, GiveUps: r.giveUps}
	if r.lastErr != nil {
		st.LastError = r.lastErr.Error()
	}
	return st
}

// Close tears down the supervised session (sending CEASE if established) and
// releases any Recv blocked in backoff.
func (r *Reconnector) Close() error {
	r.closeOne.Do(func() { close(r.closed) })
	r.teardown(StateClosed)
	return nil
}

func (r *Reconnector) isClosed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

func (r *Reconnector) teardown(next SessionState) {
	r.mu.Lock()
	sess := r.sess
	r.sess = nil
	r.state = next
	r.mu.Unlock()
	if sess != nil {
		sess.Close()
	}
}

func (r *Reconnector) setState(s SessionState) {
	r.mu.Lock()
	r.state = s
	r.mu.Unlock()
}

// ensure returns the live session, dialing with backoff until one is
// established or the retry budget is exhausted.
func (r *Reconnector) ensure() (*Session, error) {
	r.mu.Lock()
	if r.sess != nil {
		sess := r.sess
		r.mu.Unlock()
		return sess, nil
	}
	r.mu.Unlock()

	ctx := r.cfg.ctx()
	for attempt := 1; ; attempt++ {
		if r.isClosed() {
			return nil, net.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			r.setState(StateIdle)
			return nil, err
		}
		r.mu.Lock()
		r.state = StateConnecting
		r.dials++
		r.mu.Unlock()

		sess, err := r.establish()
		if err == nil {
			r.mu.Lock()
			r.sess = sess
			r.state = StateEstablished
			r.mu.Unlock()
			r.journal.Recordf(obs.EventBGPEstablish, "session to %s established (attempt %d)", r.cfg.Addr, attempt)
			return sess, nil
		}
		r.mu.Lock()
		r.lastErr = err
		r.mu.Unlock()
		if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
			r.mu.Lock()
			r.giveUps++
			r.mu.Unlock()
			r.setState(StateIdle)
			r.journal.Recordf(obs.EventBGPGiveUp, "giving up on %s after %d attempts: %v", r.cfg.Addr, attempt, err)
			return nil, fmt.Errorf("bgp: giving up on %s after %d attempts: %w", r.cfg.Addr, attempt, err)
		}
		r.setState(StateBackoff)
		t := time.NewTimer(r.nextBackoff(attempt))
		select {
		case <-r.closed:
			t.Stop()
			return nil, net.ErrClosed
		case <-ctx.Done():
			t.Stop()
			r.setState(StateIdle)
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

func (r *Reconnector) establish() (*Session, error) {
	conn, err := r.cfg.Dial(r.cfg.Addr)
	if err != nil {
		return nil, err
	}
	sess, err := NewSession(conn, r.cfg.Session)
	if err != nil {
		return nil, err
	}
	if r.cfg.OnEstablish != nil {
		if err := r.cfg.OnEstablish(sess); err != nil {
			sess.Close()
			return nil, err
		}
	}
	return sess, nil
}

// nextBackoff computes the jittered, capped delay before retry `attempt+1`
// (attempt counts completed failures, starting at 1). The schedule is the
// shared retry.Backoff, so the cluster worker's coordinator link and the
// BGP supervisor back off identically.
func (r *Reconnector) nextBackoff(attempt int) time.Duration {
	return r.backoff.Next(attempt)
}
