package ipfix

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"sync"
	"time"
)

// TCPExporter streams IPFIX messages over a TCP connection (RFC 7011 §10.4:
// stream transports carry messages back to back; the length field frames
// them). Unlike UDP, templates need to be sent only once.
type TCPExporter struct {
	conn net.Conn
	w    *FileWriter
}

// NewTCPExporter wraps an established connection — the hook for fault
// injection and custom transports. DialTCP is the common path.
func NewTCPExporter(conn net.Conn, domain uint32) *TCPExporter {
	return &TCPExporter{conn: conn, w: NewFileWriter(conn, domain)}
}

// DialTCP connects an exporter to a TCP collector.
func DialTCP(addr string, domain uint32) (*TCPExporter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: dialing %q: %w", addr, err)
	}
	return NewTCPExporter(conn, domain), nil
}

// Export appends flows to the stream.
func (e *TCPExporter) Export(exportTime time.Time, flows []Flow) error {
	if err := e.w.Write(exportTime, flows); err != nil {
		return err
	}
	return e.w.Flush()
}

// Close flushes and closes the connection.
func (e *TCPExporter) Close() error {
	if err := e.w.Flush(); err != nil {
		e.conn.Close()
		return err
	}
	return e.conn.Close()
}

// CollectorStats aggregates a collector's transport-level health counters —
// what a deployment watches to tell "quiet feed" from "degraded feed".
type CollectorStats struct {
	// Connections counts accepted exporter connections (TCP only).
	Connections int
	// Flows counts flows handed to the callback, whole batches: a batch the
	// callback stops on still counts in full, since the callback saw all of it.
	Flows int
	// Malformed counts framed-but-undecodable messages (TCP) or datagrams
	// (UDP) that were skipped rather than fatal.
	Malformed int
	// Disconnects counts connections torn down by transport, framing, or
	// deadline errors rather than an orderly exporter close.
	Disconnects int
	// Messages, RecordsDecoded, and RecordsSkipped aggregate the decoder-
	// level counters across the collector's decoders: messages decoded, data
	// records delivered, and records dropped for unknown templates or short
	// reads.
	Messages       int
	RecordsDecoded int
	RecordsSkipped int
}

// addDecoder adds a decoder's counters to the decoder-level fields: the one
// way file, TCP and UDP stats take them.
func (st *CollectorStats) addDecoder(d *Decoder) {
	st.Messages += d.Messages
	st.RecordsDecoded += d.RecordsDecoded
	st.RecordsSkipped += d.RecordsSkipped
}

// TCPCollector accepts exporter connections and decodes their streams.
type TCPCollector struct {
	ln net.Listener
	// IdleTimeout bounds per-message silence on a connection; a read that
	// exceeds it tears down that connection (counted as a disconnect).
	// Zero means no limit.
	IdleTimeout time.Duration

	mu     sync.Mutex
	fnMu   sync.Mutex
	wg     sync.WaitGroup
	conns  map[net.Conn]struct{}
	closed bool
	stats  CollectorStats
}

// ListenTCP binds a collector.
func ListenTCP(addr string) (*TCPCollector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipfix: listening on %q: %w", addr, err)
	}
	return &TCPCollector{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound address.
func (c *TCPCollector) Addr() net.Addr { return c.ln.Addr() }

// Stats returns a snapshot of the collector's health counters.
func (c *TCPCollector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// finishStream folds one connection's outcome — flow/malformed counts, the
// per-connection decoder's counters, and the disconnect verdict — into the
// collector's stats.
func (c *TCPCollector) finishStream(conn net.Conn, dec *Decoder, n, malformed int, err error) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.stats.Flows += n
	c.stats.Malformed += malformed
	c.stats.addDecoder(dec)
	if err != nil {
		c.stats.Disconnects++
	}
	c.mu.Unlock()
}

// ServeBatch accepts exporter connections until Close or Shutdown, handing
// every decoded message's flows to fn as one slice — the hand-off a
// LiveRuntime's IngestBatch wants, one queue wake per IPFIX message instead
// of per record. Connections are handled concurrently (one goroutine each,
// labelled stage=decode for profilers) but fn is invoked serially, so it
// needs no locking; the slice is that connection's reused scratch — valid
// only for the duration of the call; copy or queue by value to retain. fn
// returning false closes that one connection. A connection that fails only
// bumps the Disconnects counter — the collector keeps serving the rest.
// ServeBatch returns nil after a shutdown, once every in-flight connection
// handler has drained.
func (c *TCPCollector) ServeBatch(fn func([]Flow) bool) error {
	deliver := func(batch []Flow) bool {
		c.fnMu.Lock()
		defer c.fnMu.Unlock()
		return fn(batch)
	}
	defer c.wg.Wait()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		// A connection accepted as Close or Shutdown runs is refused here:
		// registered after Close's sweep, or counted after Shutdown's wait,
		// its handler would keep ServeBatch waiting until the exporter hung up.
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return nil
		}
		c.stats.Connections++
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go func(conn net.Conn) {
			defer c.wg.Done()
			defer conn.Close()
			pprof.Do(context.Background(), pprof.Labels("stage", "decode"), func(context.Context) {
				dec := NewDecoder()
				n, malformed, err := serveStream(conn, dec, c.IdleTimeout, deliver)
				c.finishStream(conn, dec, n, malformed, err)
			})
		}(conn)
	}
}

// Close stops accepting and aborts the active connections; ServeBatch returns
// once their handlers drain. Use Shutdown to let exporters finish instead.
func (c *TCPCollector) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	err := c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	return err
}

// Shutdown stops accepting new connections and waits for the active ones to
// end naturally (exporter close or idle timeout) — the graceful counterpart
// of Close. It must not be called from inside the ServeBatch callback.
func (c *TCPCollector) Shutdown() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	err := c.ln.Close()
	c.wg.Wait()
	return err
}

// readDeadliner is the subset of net.Conn serveStream needs for idle
// timeouts; plain io.Readers (tests, files) simply run without deadlines.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// streamPool recirculates connection streams, so a collector serving
// short-lived exporter sessions allocates no reader or scratch per
// connection once the pool is warm.
var streamPool = sync.Pool{New: func() any { return newStream(nil, nil) }}

// serveStream is a connection's loop: it reads the IPFIX messages of r into
// dec (one decoder per connection: templates are per-stream state), handing
// each message's flows to deliver as one batch. The batch slice is pooled
// scratch reused for the next message — deliver must consume or copy it
// before returning; a batch it stops the stream on still counts in n in
// full. A message that frames correctly but fails to decode is skipped and
// counted in malformed — one bad export must not tear down the feed. Only a
// framing failure (garbage length, short read, deadline) ends the stream
// with an error, because message boundaries are lost at that point. When r
// has read deadlines and idle is positive, each message must arrive within
// idle. The caller owns dec and harvests its counters after the stream ends.
func serveStream(r io.Reader, dec *Decoder, idle time.Duration, deliver func([]Flow) bool) (n, malformed int, err error) {
	rd, hasDeadline := r.(readDeadliner)
	s := streamPool.Get().(*stream)
	s.r.Reset(r)
	s.dec = dec
	defer func() {
		s.r.Reset(nil) // hold no connection or decoder while pooled
		s.dec = nil
		streamPool.Put(s)
	}()
	for {
		if hasDeadline && idle > 0 {
			if err := rd.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return n, malformed, err
			}
		}
		switch bad, err := s.next(); {
		case err == io.EOF:
			return n, malformed, nil
		case err != nil:
			return n, malformed, err
		case bad != nil:
			// The length field framed the message, so the stream is still
			// in sync: skip it and keep serving.
			malformed++
		case len(s.flows) > 0:
			n += len(s.flows)
			if !deliver(s.flows) {
				return n, malformed, nil
			}
		}
	}
}
