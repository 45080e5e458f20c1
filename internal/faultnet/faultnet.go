// Package faultnet wraps net.Conn / net.Listener with seeded, deterministic
// fault injection: fragmented (partial) writes, read stalls, mid-message
// resets, and header-byte corruption. It exists so every resilience claim
// in the live-ingestion layer (internal/bgp sessions, internal/ipfix
// collectors) can be proven offline with a reproducible fault schedule —
// the same philosophy as the seeded scenario generators.
//
// A zero Config is a transparent passthrough. Faults are keyed to operation
// counts (the Nth read / Nth write), not wall-clock time, so a given schedule
// replays identically across runs; the only randomness — which header byte a
// corruption flips — comes from the seeded RNG.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjected is wrapped by every error a fault schedule produces, so tests
// can distinguish injected failures from genuine transport errors.
var ErrInjected = fmt.Errorf("faultnet: injected fault")

// Config is a deterministic fault schedule for one connection.
type Config struct {
	// Seed drives the RNG that picks corruption positions. Equal seeds and
	// equal operation sequences produce byte-identical faults.
	Seed int64

	// WriteChunk > 0 fragments every write into chunks of at most this many
	// bytes, each sent as a separate inner write — exercises reader-side
	// message reassembly.
	WriteChunk int

	// CorruptWriteEvery N > 0 corrupts every Nth write by XOR-flipping one
	// seeded-random byte among the first four — the header region where
	// both BGP (marker) and IPFIX (version/length) detect damage. The
	// caller's buffer is never mutated.
	CorruptWriteEvery int

	// ResetAfterWrites N > 0 makes the Nth write deliver just over half its
	// bytes — one past the midpoint, so a buffer of equal-sized framed
	// messages is always cut mid-message — and then close the transport.
	// ResetAfterReads is the read-side equivalent: the Nth read fails and
	// closes the transport.
	ResetAfterWrites int
	ResetAfterReads  int

	// StallAfterReads N > 0 makes reads from the Nth onward block — honouring
	// any read deadline set on the connection — until StallDuration elapses
	// (0 = stalled until Close). Simulates a peer that goes silent without
	// closing, the failure hold timers exist for.
	StallAfterReads int
	StallDuration   time.Duration
}

// Stats counts the faults a connection actually injected.
type Stats struct {
	Reads, Writes   int
	Fragments       int
	CorruptedWrites int
	Resets          int
	Stalls          int
}

// Conn is a net.Conn executing a fault schedule around an inner connection.
type Conn struct {
	inner net.Conn
	cfg   Config

	mu           sync.Mutex
	rng          *rand.Rand
	stats        Stats
	readDeadline time.Time
	closed       chan struct{}
	closeOnce    sync.Once
}

// Wrap applies a fault schedule to conn. The wrapper owns conn: closing the
// wrapper (or hitting a reset fault) closes it.
func Wrap(conn net.Conn, cfg Config) *Conn {
	return &Conn{
		inner:  conn,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		closed: make(chan struct{}),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// corruptPos picks the header byte a corruption fault flips.
func (c *Conn) corruptPos(n int) int {
	if n > 4 {
		n = 4
	}
	return c.rng.Intn(n)
}

func (c *Conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	c.stats.Reads++
	nth := c.stats.Reads
	stall := c.cfg.StallAfterReads > 0 && nth >= c.cfg.StallAfterReads
	reset := c.cfg.ResetAfterReads > 0 && nth == c.cfg.ResetAfterReads
	if stall {
		c.stats.Stalls++
	}
	deadline := c.readDeadline
	c.mu.Unlock()

	if reset {
		c.mu.Lock()
		c.stats.Resets++
		c.mu.Unlock()
		c.Close()
		return 0, fmt.Errorf("%w: read reset", ErrInjected)
	}
	if stall {
		var deadlineC, stallC <-chan time.Time
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return 0, os.ErrDeadlineExceeded
			}
			deadlineC = time.After(d)
		}
		if c.cfg.StallDuration > 0 {
			stallC = time.After(c.cfg.StallDuration)
		}
		select {
		case <-c.closed:
			return 0, net.ErrClosed
		case <-deadlineC:
			return 0, os.ErrDeadlineExceeded
		case <-stallC:
			// Transient stall over; perform the read normally.
		}
	}
	return c.inner.Read(b)
}

func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.stats.Writes++
	nth := c.stats.Writes
	reset := c.cfg.ResetAfterWrites > 0 && nth == c.cfg.ResetAfterWrites
	corrupt := c.cfg.CorruptWriteEvery > 0 && nth%c.cfg.CorruptWriteEvery == 0
	if corrupt && len(b) > 0 {
		dup := make([]byte, len(b))
		copy(dup, b)
		dup[c.corruptPos(len(b))] ^= 0xff
		b = dup
		c.stats.CorruptedWrites++
	}
	c.mu.Unlock()

	if reset {
		cut := len(b)/2 + 1
		if cut > len(b) {
			cut = len(b)
		}
		n, _ := c.inner.Write(b[:cut])
		c.mu.Lock()
		c.stats.Resets++
		c.mu.Unlock()
		c.Close()
		return n, fmt.Errorf("%w: write reset after %d bytes", ErrInjected, n)
	}
	if c.cfg.WriteChunk > 0 {
		total := 0
		for len(b) > 0 {
			chunk := len(b)
			if chunk > c.cfg.WriteChunk {
				chunk = c.cfg.WriteChunk
			}
			n, err := c.inner.Write(b[:chunk])
			total += n
			c.mu.Lock()
			c.stats.Fragments++
			c.mu.Unlock()
			if err != nil {
				return total, err
			}
			b = b[chunk:]
		}
		return total, nil
	}
	return c.inner.Write(b)
}

// Close releases any stalled readers and closes the inner connection.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.inner.Close()
	})
	return err
}

func (c *Conn) LocalAddr() net.Addr  { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Listener wraps a net.Listener so each accepted connection runs its own
// fault schedule, chosen per connection index.
type Listener struct {
	inner net.Listener
	plan  func(i int) Config

	mu         sync.Mutex
	accepts    int
	conns      []*Conn
	acceptPlan func(i int) error
}

// WrapListener applies plan(i) to the i-th accepted connection (0-based).
// A nil plan leaves every connection transparent.
func WrapListener(ln net.Listener, plan func(i int) Config) *Listener {
	return &Listener{inner: ln, plan: plan}
}

// SetAcceptPlan injects accept-path failures: when plan(i) returns a
// non-nil error for the i-th accepted connection, that connection is closed
// on the spot and Accept returns the error wrapped in ErrInjected — the
// transient accept failure a serve loop must survive. Failed accepts still
// consume a connection index.
func (l *Listener) SetAcceptPlan(plan func(i int) error) {
	l.mu.Lock()
	l.acceptPlan = plan
	l.mu.Unlock()
}

// Accept wraps the next inner connection in its scheduled faults.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.accepts
	l.accepts++
	aplan := l.acceptPlan
	l.mu.Unlock()
	if aplan != nil {
		if aerr := aplan(i); aerr != nil {
			conn.Close()
			return nil, fmt.Errorf("%w: accept %d: %v", ErrInjected, i, aerr)
		}
	}
	cfg := Config{}
	if l.plan != nil {
		cfg = l.plan(i)
	}
	wrapped := Wrap(conn, cfg)
	l.mu.Lock()
	l.conns = append(l.conns, wrapped)
	l.mu.Unlock()
	return wrapped, nil
}

// Accepts reports how many connections have been accepted.
func (l *Listener) Accepts() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepts
}

// ConnStats returns the fault counters of the i-th accepted connection.
func (l *Listener) ConnStats(i int) (Stats, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < 0 || i >= len(l.conns) {
		return Stats{}, false
	}
	return l.conns[i].Stats(), true
}

// Close closes the inner listener; accepted connections stay open.
func (l *Listener) Close() error { return l.inner.Close() }

// Addr returns the inner listener's address.
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }
