package ipfix

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// UDPExporter sends IPFIX messages to a collector over UDP, re-sending the
// template periodically as RFC 7011 §8.1 requires for unreliable transports.
type UDPExporter struct {
	conn net.Conn
	enc  *Encoder
	// TemplateEvery controls template retransmission (default: every 20
	// data messages).
	TemplateEvery int
	sinceTemplate int
}

// NewUDPExporter wraps an already-connected datagram socket — the hook for
// fault injection and custom transports. DialUDP is the common path.
func NewUDPExporter(conn net.Conn, domain uint32) *UDPExporter {
	return &UDPExporter{conn: conn, enc: NewEncoder(domain), TemplateEvery: 20}
}

// DialUDP connects an exporter to addr (e.g. "127.0.0.1:4739").
func DialUDP(addr string, domain uint32) (*UDPExporter, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: resolving %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("ipfix: dialing %q: %w", addr, err)
	}
	return NewUDPExporter(conn, domain), nil
}

// Export sends flows, preceded by the template when due.
func (e *UDPExporter) Export(exportTime time.Time, flows []Flow) error {
	if e.sinceTemplate >= e.TemplateEvery {
		if _, err := e.conn.Write(e.enc.TemplateMessage(exportTime)); err != nil {
			return err
		}
		e.sinceTemplate = 0
	}
	for _, msg := range e.enc.Encode(exportTime, flows) {
		if _, err := e.conn.Write(msg); err != nil {
			return err
		}
		e.sinceTemplate++
	}
	return nil
}

// Close closes the underlying socket.
func (e *UDPExporter) Close() error { return e.conn.Close() }

// UDPCollector receives IPFIX messages on a datagram socket and hands
// decoded flows to a callback.
type UDPCollector struct {
	conn net.PacketConn
	dec  *Decoder

	mu     sync.Mutex
	closed bool
	stats  CollectorStats
}

// NewUDPCollector wraps an already-bound datagram socket — the hook for
// fault injection (faultnet.WrapPacket) and custom transports, mirroring
// NewTCPExporter on the send side. ListenUDP is the common path.
func NewUDPCollector(pc net.PacketConn) *UDPCollector {
	return &UDPCollector{conn: pc, dec: NewDecoder()}
}

// ListenUDP binds a collector to addr. Use port 0 for an ephemeral port and
// Addr() to discover it.
func ListenUDP(addr string) (*UDPCollector, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("ipfix: listening on %q: %w", addr, err)
	}
	return NewUDPCollector(conn), nil
}

// Addr returns the bound address.
func (c *UDPCollector) Addr() net.Addr { return c.conn.LocalAddr() }

// ServeBatch reads datagrams until the socket is closed or the deadline
// passes, handing each datagram's decoded flows to fn as one slice — one
// runtime queue wake per IPFIX message instead of per record. Malformed
// datagrams are counted and skipped; it returns how many there were. The
// slice is the collector's reused scratch, valid only for the duration of the
// call; copy or queue by value to retain. fn returning false stops serving
// (nil error), the callback's counterpart of closing the socket.
func (c *UDPCollector) ServeBatch(deadline time.Time, fn func([]Flow) bool) (malformed int, err error) {
	if !deadline.IsZero() {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, 65536)
	var flows []Flow
	for {
		n, _, err := c.conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return malformed, nil
			}
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				// Orderly Shutdown, not a socket failure.
				return malformed, nil
			}
			return malformed, err
		}
		batch, derr := c.dec.AppendFlows(buf[:n], flows[:0])
		if derr != nil {
			malformed++
			c.mu.Lock()
			c.stats.Malformed++
			c.syncDecoderLocked()
			c.mu.Unlock()
			continue
		}
		flows = batch // reuse the grown buffer across datagrams
		c.mu.Lock()
		c.stats.Flows += len(batch)
		c.syncDecoderLocked()
		c.mu.Unlock()
		if len(batch) > 0 && !fn(batch) {
			return malformed, nil
		}
	}
}

// Close closes the socket, unblocking ServeBatch, which reports the closed
// socket as an error; use Shutdown for an orderly stop.
func (c *UDPCollector) Close() error { return c.conn.Close() }

// Shutdown stops the collector cleanly: it closes the socket to unblock
// ServeBatch, which then returns nil instead of the socket-closed error —
// parity with TCPCollector, distinguishing an orderly stop from a socket
// failure.
func (c *UDPCollector) Shutdown() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// syncDecoderLocked mirrors the decoder's counters into the stats snapshot.
// The decoder itself is touched only by the ServeBatch goroutine; copying
// under c.mu at the points it already locks lets Stats read them race-free.
func (c *UDPCollector) syncDecoderLocked() {
	c.stats.Messages = c.dec.Messages
	c.stats.RecordsDecoded = c.dec.RecordsDecoded
	c.stats.RecordsSkipped = c.dec.RecordsSkipped
}

// Stats returns the collector's health counters (Connections stays zero:
// UDP has no connections to count). Decoder-level counters are current as
// of the last datagram ServeBatch finished with.
func (c *UDPCollector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
